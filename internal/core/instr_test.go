package core

import "testing"

func TestInstrKindString(t *testing.T) {
	if ALU.String() != "alu" || Mem.String() != "mem" {
		t.Fatalf("kind strings wrong: %v %v", ALU, Mem)
	}
	if InstrKind(9).String() == "" {
		t.Fatalf("unknown kind should not be empty")
	}
}
