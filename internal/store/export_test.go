package store

// ResultVersion is the result envelope's version, which names the
// verdict golden of the external tests.
const ResultVersion = resultVersion
