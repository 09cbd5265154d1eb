package system

// EnumPatterns exposes the builder's bounds on what a key may build to
// tests outside the package, which can import internal/bench.
var EnumPatterns = enumPatterns
