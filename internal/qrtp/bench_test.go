package qrtp

import (
	"testing"

	"sparselr/internal/gen"
	"sparselr/internal/ordering"
)

// benchSelectColumns times one k = 16 binary tournament over every column
// of the medium Table I analog, after the fill-reducing column order the
// LU_CRTP pipeline applies before its first tournament.
func benchSelectColumns(b *testing.B, label string) {
	pm, err := gen.ByLabel(label, gen.Medium)
	if err != nil {
		b.Fatal(err)
	}
	a := pm.A.PermuteCols(ordering.FillReducingOrder(pm.A)).ToCSC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = SelectColumns(a, 16, Binary)
	}
}

var benchResult Result

func BenchmarkSelectColumnsM2(b *testing.B) { benchSelectColumns(b, "M2") }

func BenchmarkSelectColumnsM6(b *testing.B) { benchSelectColumns(b, "M6") }
