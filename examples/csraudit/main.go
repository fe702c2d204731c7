// CSR audit: run the Table I campaign probes against the as-shipped
// MicroRV32 and VP ISS and print the classified error/mismatch catalogue —
// the reproduction of the paper's §V-A case study.
//
// Run with: go run ./examples/csraudit
package main

import (
	"fmt"
	"time"

	"symriscv/internal/harness"
)

func main() {
	fmt.Println("auditing the as-shipped MicroRV32 against the as-shipped RISC-V VP ISS ...")
	res := harness.RunTable1(harness.Table1Options{})
	fmt.Println()
	fmt.Print(res.Format())

	counts := map[harness.Verdict]int{}
	for _, row := range res.Rows {
		counts[row.Class.R]++
	}
	fmt.Printf("\nRTL-core errors (E): %d   ISS errors (E*): %d   implementation mismatches (M): %d\n",
		counts[harness.VerdictRTLError], counts[harness.VerdictISSError], counts[harness.VerdictMismatch])
	fmt.Printf("campaign wall time: %s\n", res.Elapsed.Round(time.Millisecond))
}
