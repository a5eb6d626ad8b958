package cpu

import "testing"

func TestLevelIsConsistent(t *testing.T) {
	lvl := Level()
	switch lvl {
	case "avx512":
		if !X86.HasAVX512 || !X86.HasAVX2 {
			t.Fatalf("Level()=avx512 but X86=%+v (AVX-512 implies AVX2 here)", X86)
		}
	case "avx2":
		if !X86.HasAVX2 || X86.HasAVX512 {
			t.Fatalf("Level()=avx2 but X86=%+v", X86)
		}
	case "scalar":
		if X86.HasAVX2 || X86.HasAVX512 {
			t.Fatalf("Level()=scalar but features set: X86=%+v", X86)
		}
	default:
		t.Fatalf("Level() returned unknown tier %q", lvl)
	}
	t.Logf("detected vector tier: %s", lvl)
}
