// Package fixture exercises the checkederr analyzer: error returns of
// symriscv APIs must be checked or explicitly dropped.
package fixture

import "symriscv/internal/qstore"

func dropped(s *qstore.Session) {
	s.Close() // want `result of qstore\.Close discarded`
}

// checked propagates the error: allowed.
func checked(s *qstore.Session) error {
	return s.Close()
}

// explicitDiscard documents intent with a blank assignment: allowed.
func explicitDiscard(s *qstore.Session) {
	_ = s.Close()
}
