package xquery

// FuzzParseSeeds is FuzzParse's seed corpus, for the tests of package
// xquery_test.
var FuzzParseSeeds = fuzzParseSeeds

// BenchmarkShapes are the benchmark's query texts, for the tests of
// package xquery_test.
var BenchmarkShapes = benchmarkShapes

// RaceEnabled reports a race-detector build, for the tests of package
// xquery_test.
const RaceEnabled = raceEnabled
