package xpath

// RefEval is the reference evaluator (reference_test.go), for the
// differential tests of the packages that evaluate through this one.
var RefEval = refEval
