package cpu

import "testing"

func TestLevelIsConsistent(t *testing.T) {
	lvl := Level()
	switch lvl {
	case "avx2":
		if !X86.HasAVX2 {
			t.Fatalf("Level()=avx2 but X86=%+v", X86)
		}
	case "scalar":
		if X86.HasAVX2 {
			t.Fatalf("Level()=scalar but features set: X86=%+v", X86)
		}
	default:
		t.Fatalf("Level() returned %q, a tier no kernel exists for", lvl)
	}
	t.Logf("detected vector tier: %s", lvl)
}
