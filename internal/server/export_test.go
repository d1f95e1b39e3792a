package server

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }
