package sampling

// DefaultConfig mirrors the paper's parameters: 100k-cycle interval, a few
// ticks of drift, mild loss.
func DefaultConfig() Config {
	return Config{IntervalCycles: 100000, DriftMaxCycles: 8, LossProb: 0.02, Seed: 1}
}

// Samples returns everything collected so far.
func (c *Collector) Samples() []Sample { return c.samples }
