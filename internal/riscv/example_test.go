package riscv_test

import (
	"fmt"

	"symriscv/internal/riscv"
)

// ExampleDecode inspects the fields of an instruction word.
func ExampleDecode() {
	in := riscv.Decode(riscv.BNE(1, 2, -3022))
	fmt.Println(in.Mn, in.Rs1, in.Rs2, in.Imm)
	// Output:
	// bne 1 2 -3022
}
