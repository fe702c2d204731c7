// Package fixture exercises the checkederr analyzer: error returns of
// symriscv APIs must be checked or explicitly dropped.
package fixture

import (
	"io"

	"symriscv/internal/sat"
)

func dropped(s *sat.Solver) {
	s.WriteDIMACS(io.Discard) // want `result of sat\.WriteDIMACS discarded`
}

// checked propagates the error: allowed.
func checked(s *sat.Solver) error {
	return s.WriteDIMACS(io.Discard)
}

// explicitDiscard documents intent with a blank assignment: allowed.
func explicitDiscard() {
	_ = sat.New().WriteDIMACS(io.Discard)
}
