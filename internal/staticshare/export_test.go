package staticshare

// LintFileExact exposes the exact-walk linter to the external test
// package, which lowers Go packages through gofront (an import the
// internal tests cannot take without a cycle).
var LintFileExact = lintFileExact
