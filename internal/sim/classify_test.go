package sim

import "testing"

// evalClassBlock evaluates a classified opcode the way the block
// evaluator does: permute the position inputs via the descriptor, then run
// the table-free kernel.
func evalClassBlock(op uint8, msk uint16, in *[4]vec4) vec4 {
	var o vec4
	p := &permTab[msk>>10&31] // opSplit4 keeps its edge complement in bit 15
	switch op {
	case opXor2:
		evalXor2x4(msk, &in[0], &in[1], &o)
	case opXor3:
		evalXor3x4(msk, &in[0], &in[1], &in[2], &o)
	case opXor4:
		evalXor4x4(msk, &in[0], &in[1], &in[2], &in[3], &o)
	case opChain2:
		evalChain2x4(msk, &in[p[0]], &in[p[1]], &o)
	case opChain3:
		evalChain3x4(msk, &in[p[0]], &in[p[1]], &in[p[2]], &o)
	case opChain4:
		evalChain4x4(msk, &in[p[0]], &in[p[1]], &in[p[2]], &in[p[3]], &o)
	case opTree4:
		evalTree4x4(msk, &in[p[0]], &in[p[1]], &in[p[2]], &in[p[3]], &o)
	case opMux3:
		evalMux3x4(msk, &in[p[0]], &in[p[1]], &in[p[2]], &o)
	case opMaj3:
		evalMaj3x4(msk, &in[0], &in[1], &in[2], &o)
	case opSplit4:
		evalSplit4x4(msk, &in[p[0]], &in[p[1]], &in[p[2]], &in[p[3]], &o)
	}
	return o
}

// TestClassifyExhaustive classifies every truth table of every supported
// arity and, for each one the classifier accepts, checks the table-free
// kernel against the table on every minterm (broadcast to full words, so
// the block kernels run exactly as in the stride-W evaluators).
func TestClassifyExhaustive(t *testing.T) {
	for k := 2; k <= 4; k++ {
		n := 1 << uint(k)
		mask := uint16(1)<<uint(n) - 1
		classified := 0
		for v := 0; v <= int(mask); v++ {
			op, msk, ok := classifyTT(uint16(v), k)
			if !ok {
				continue
			}
			classified++
			for m := 0; m < n; m++ {
				var in [4]vec4
				for j := 0; j < k; j++ {
					w := -uint64(m >> uint(j) & 1)
					in[j] = vec4{w, w, w, w}
				}
				got := evalClassBlock(op, msk, &in)
				want := -uint64(v >> uint(m) & 1)
				for w := 0; w < 4; w++ {
					if got[w] != want {
						t.Fatalf("k=%d tt=%#04x op=%d msk=%#04x minterm=%d word %d: got %#x want %#x",
							k, v, op, msk, m, w, got[w], want)
					}
				}
			}
		}
		t.Logf("k=%d: %d/%d tables classified", k, classified, int(mask)+1)
	}
}

// TestClassifyRejectsArity pins the arity guard: the classifier only
// handles 2..4 inputs.
func TestClassifyRejectsArity(t *testing.T) {
	for _, k := range []int{0, 1, 5} {
		if _, _, ok := classifyTT(0x6, k); ok {
			t.Fatalf("classifyTT accepted arity %d", k)
		}
	}
}
