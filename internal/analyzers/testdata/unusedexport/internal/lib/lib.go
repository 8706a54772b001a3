// Package lib is the unusedexport fixture: one exported identifier per
// rule of TestNoDeadExports.
package lib

// Used is called from a non-test file of another package: kept.
func Used() {}

// UsedByOtherTest is called from another package's test: kept.
func UsedByOtherTest() {}

// OwnTestOnly is called from its own package's test only: flagged.
func OwnTestOnly() {}

// Dead is referenced nowhere: flagged.
func Dead() {}

// Allowed is referenced nowhere but carries a justified allow: kept.
//
//iotml:allow unusedexport -- fixture: deliberate API
func Allowed() {}

// Unjustified carries an allow without a justification, which exempts
// nothing: flagged.
//
//iotml:allow unusedexport
func Unjustified() {}

// T is used by cmd/app.
type T struct{}

// DeadMethod is referenced nowhere: flagged.
func (T) DeadMethod() {}

// Recursive mentions only itself, which is not a use: flagged.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// List mentions only itself, inside its own spec: flagged.
type List struct{ next *List }

// DeadConst is referenced nowhere: flagged.
const DeadConst = 1

// UsedVar is read by cmd/app: kept.
var UsedVar = 2

// The group's doc carries a justified allow, which covers every name in
// it: kept.
//
//iotml:allow unusedexport -- fixture: a documented group
const (
	GroupedA = iota
	GroupedB
)

var (
	// SpecAllowed carries a justified allow in its own spec doc: kept.
	//iotml:allow unusedexport -- fixture: spec-level allow
	SpecAllowed = 3

	// SpecDead shares the group but not the allow: flagged.
	SpecDead = 4
)

// G is a generic type cmd/app instantiates.
type G[P any] struct{ v P }

// Get is called by cmd/app on G[int]: kept.
func (g G[P]) Get() P { return g.v }

// GenDead is a method of the generic G referenced nowhere: flagged.
func (g G[P]) GenDead() P { return g.v }
