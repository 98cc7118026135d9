package plan

// NextTestExprs exports the next-instant expressions to the external tests
// of next_prepared_test.go, which hold caldb.Prepared.NextAfter to the
// scheduler and cannot live in this package (caldb imports it).
var NextTestExprs = nextTestExprs

// NestedSelect is nextTestExprs' selection over nested groups.
const NestedSelect = nestedSelect
