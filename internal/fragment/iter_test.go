package fragment

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/apb"
)

func TestEnumerationSize(t *testing.T) {
	s := apb.Schema(1_000_000)
	if got := EnumerationSize(s); got != 167 {
		t.Fatalf("EnumerationSize(APB-1) = %d, want 167", got)
	}
	if got := int64(len(Enumerate(s))); got != EnumerationSize(s) {
		t.Fatalf("Enumerate yields %d, EnumerationSize says %d", got, EnumerationSize(s))
	}
}

func TestEnumerateSeqMatchesEnumerate(t *testing.T) {
	s := apb.Schema(1_000_000)
	want := Enumerate(s)
	i := 0
	for f := range EnumerateSeq(s) {
		if i >= len(want) {
			t.Fatalf("sequence longer than slice (%d)", len(want))
		}
		if f.Key() != want[i].Key() {
			t.Fatalf("candidate %d: seq %s, slice %s", i, f.Key(), want[i].Key())
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("sequence yielded %d, slice has %d", i, len(want))
	}
}

func TestEnumerateSeqEarlyBreak(t *testing.T) {
	s := apb.Schema(1_000_000)
	n := 0
	for range EnumerateSeq(s) {
		n++
		if n == 5 {
			break
		}
	}
	if n != 5 {
		t.Fatalf("early break consumed %d", n)
	}
}

func TestEnumerateFilteredSeqMatchesSlices(t *testing.T) {
	s := apb.Schema(1_000_000)
	th := Thresholds{MinAvgFragmentPages: 16, MaxFragments: 1 << 20}
	kept, excluded := EnumerateFiltered(s, th, 8192)
	if len(kept) == 0 || len(excluded) == 0 {
		t.Fatalf("expected both survivors (%d) and exclusions (%d)", len(kept), len(excluded))
	}
	var k, x int
	for f, v := range EnumerateFilteredSeq(s, th, 8192) {
		if v != nil {
			if x >= len(excluded) || v.Frag.Key() != excluded[x].Frag.Key() {
				t.Fatalf("exclusion %d mismatch", x)
			}
			if v.Frag != f {
				t.Fatalf("violation frag != yielded frag")
			}
			x++
			continue
		}
		if k >= len(kept) || f.Key() != kept[k].Key() {
			t.Fatalf("survivor %d mismatch", k)
		}
		k++
	}
	if k != len(kept) || x != len(excluded) {
		t.Fatalf("streamed %d/%d, slices %d/%d", k, x, len(kept), len(excluded))
	}
}

// formatKey is the retained per-call Key formatting the stored key
// replaced.
func formatKey(f *Fragmentation) string {
	parts := make([]string, len(f.attrs))
	for i, a := range f.attrs {
		parts[i] = fmt.Sprintf("%d:%d", a.Dim, a.Level)
	}
	return strings.Join(parts, "|")
}

// TestKeyMatchesFormatting: the key built at construction equals the
// "dim:level|dim:level" formatting for every APB-1 candidate (built by
// EnumerateSeq) and for New with unsorted attributes.
func TestKeyMatchesFormatting(t *testing.T) {
	s := apb.Schema(1_000_000)
	n := 0
	for f := range EnumerateSeq(s) {
		if f.Key() != formatKey(f) {
			t.Fatalf("candidate %s: Key %q, formatted %q", f.Name(s), f.Key(), formatKey(f))
		}
		// The same attributes, unsorted: New normalizes them first.
		rev := slices.Clone(f.Attrs())
		slices.Reverse(rev)
		g, err := New(s, rev...)
		if err != nil {
			t.Fatal(err)
		}
		if g.Key() != f.Key() || g.Key() != formatKey(g) {
			t.Fatalf("New(reversed %s): Key %q, formatted %q, want %q", f.Name(s), g.Key(), formatKey(g), f.Key())
		}
		n++
	}
	if n != int(EnumerationSize(s)) {
		t.Fatalf("checked %d candidates, want %d", n, EnumerationSize(s))
	}
}
