package service

// CheckRuns exposes the engine's bound on what a key may build to
// tests outside the package, which can import internal/bench.
var CheckRuns = checkRuns
