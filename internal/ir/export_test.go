package ir

// LoweringPrograms returns the hand-built programs of ir_test.go, for the
// loop-nest oracle in package ir_test.
func LoweringPrograms() []*Program {
	return []*Program{figure4Program(100), nestedLoopsProgram(), ifProgram(), mixedProgram()}
}
