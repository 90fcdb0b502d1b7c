package asm

import "testing"

// FuzzAssemble: the assembler never panics, and anything it accepts
// encodes to valid architectural words.
func FuzzAssemble(f *testing.F) {
	f.Add("ldi r1, 5\nhalt\n")
	f.Add("loop: addi r1, r1, -1\nbne r1, loop\n")
	f.Add("ldq r3, 16(sp)\nstq r3, -8(r2)\n")
	f.Add("limm r9, 0xdeadbeefcafef00d\n")
	f.Add("mfpr r1, faultva\ntlbwr r1, r5\nrfe\n")
	f.Add("popc r2, r3\nwrtdest r2\n")
	f.Add("x: y: nop ; comment")
	f.Add("br 8\nbeq r0, -4\n")
	f.Add("ldi r0,10000")
	f.Add("addi r1, r1, 9000")
	f.Add("ldq r3, 9000(sp)")
	f.Fuzz(func(t *testing.T, src string) {
		insts, err := Assemble(src)
		if err != nil {
			return
		}
		if _, err := EncodeAll(insts); err != nil {
			t.Fatalf("accepted source produced unencodable instructions: %v\n%s", err, src)
		}
	})
}
