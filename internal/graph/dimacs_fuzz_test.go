package graph

import (
	"strings"
	"testing"
)

// FuzzParseDIMACS feeds arbitrary .gr/.co payloads through ReadDIMACS:
// whatever the bytes, the loader must return a well-formed graph or an
// error — never panic, and never hand back a graph that fails the CSR
// invariants. The seed corpus covers the happy path plus each malformed
// shape the parser guards against.
func FuzzParseDIMACS(f *testing.F) {
	const goodCo = "c comment\np aux sp co 3\nv 1 0.0 0.0\nv 2 1.0 0.0\nv 3 0.0 1.0\n"
	const goodGr = "c comment\np sp 3 3\na 1 2 1.5\na 2 1 1.5\na 2 3 2.0\na 3 2 2.0\na 1 3 4.0\na 3 1 4.0\n"
	seeds := [][2]string{
		{goodGr, goodCo},                                   // well-formed pair
		{"", ""},                                           // empty inputs
		{goodGr, "p aux sp co 3\nv 1 0 0\n"},               // fewer vertices than declared
		{goodGr, "v 1 0 0\n"},                              // vertex before problem line
		{goodGr, "p aux sp co 999999999\nv 1 0 0\n"},       // absurd declared count
		{goodGr, "p aux sp co 3\nv 7 0 0\n"},               // non-dense ids
		{goodGr, "p aux sp co 3\nv 1 nan inf\n"},           // non-finite coordinates
		{"a 1 2 1\n", goodCo},                              // arc with no problem line (accepted: gr p-line is advisory)
		{"p sp 3 1\na 0 2 1\n", goodCo},                    // id underflow to -1
		{"p sp 3 1\na 1 2 -5\n", goodCo},                   // negative weight
		{"p sp 3 1\na 1 2 nan\n", goodCo},                  // NaN weight
		{"p sp 3 1\na 1 1 1\n", goodCo},                    // self loop (dropped)
		{"p sp 3 1\na 1 99999999999999999999 1\n", goodCo}, // overflow id
		{"p sp 3 1\nq 1 2 3\n", goodCo},                    // unknown record
		{"p sp 3 1\na 1 2\n", goodCo},                      // short arc line
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, gr, co string) {
		g, err := ReadDIMACS(strings.NewReader(gr), strings.NewReader(co))
		if err != nil {
			return
		}
		if g == nil {
			t.Fatal("nil graph with nil error")
		}
		// Structural invariants must hold on anything the loader accepts
		// (connectivity is a dataset property, not a parser guarantee).
		n := g.NumVertices()
		for v := int32(0); v < int32(n); v++ {
			ts, ws := g.Neighbors(v)
			for i, u := range ts {
				if u < 0 || int(u) >= n || u == v {
					t.Fatalf("accepted graph has bad neighbor %d of %d", u, v)
				}
				if !(ws[i] > 0) {
					t.Fatalf("accepted graph has non-positive weight %v on (%d,%d)", ws[i], v, u)
				}
			}
		}
	})
}
