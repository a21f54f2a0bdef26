package xquery

// FuzzParseSeeds is FuzzParse's seed corpus, for the tests of package
// xquery_test.
var FuzzParseSeeds = fuzzParseSeeds
