package scenario

import "strings"

// SCENARIOS.md is owned by several writers: agar-suite rewrites the whole
// file on every full run, agar-suite -soak contributes one marker-fenced
// section with the latest long-soak timeline, and a second holds the
// POPULATE-vs-optimum value gap published from core.BenchmarkSolve. The markers let each
// writer replace its own block without clobbering the others': side
// writers splice between their markers (SpliceMarked), and the full-suite
// rewrite carries every existing marked block forward verbatim when it
// regenerates the rest of the file (ExtractMarked).
const (
	// SoakSectionBegin and SoakSectionEnd fence the long-soak section that
	// agar-suite -soak maintains in SCENARIOS.md.
	SoakSectionBegin = "<!-- agar-suite:soak:begin -->"
	SoakSectionEnd   = "<!-- agar-suite:soak:end -->"

	// SolverGapSectionBegin and SolverGapSectionEnd fence the published
	// POPULATE-vs-optimum value gap, taken from core.BenchmarkSolve's
	// value/optimum metric on the repository benchmark's four shapes.
	SolverGapSectionBegin = "<!-- core:solver-gap:begin -->"
	SolverGapSectionEnd   = "<!-- core:solver-gap:end -->"
)

// ExtractMarked returns the block of doc fenced by the begin and end
// marker lines, markers included, and whether a complete block was found.
// A begin without an end (or in the wrong order) reports not-found rather
// than guessing at a truncated block.
func ExtractMarked(doc, begin, end string) (string, bool) {
	i := strings.Index(doc, begin)
	if i < 0 {
		return "", false
	}
	j := strings.Index(doc[i:], end)
	if j < 0 {
		return "", false
	}
	return doc[i : i+j+len(end)], true
}

// SpliceMarked replaces doc's marker-fenced block with inner (wrapped in
// fresh markers), or appends a new fenced block at the end when doc has
// none. The result always contains exactly the new block where the old one
// was; text outside the markers is untouched.
func SpliceMarked(doc, begin, end, inner string) string {
	block := begin + "\n" + strings.TrimRight(inner, "\n") + "\n" + end
	if old, ok := ExtractMarked(doc, begin, end); ok {
		return strings.Replace(doc, old, block, 1)
	}
	if doc != "" && !strings.HasSuffix(doc, "\n") {
		doc += "\n"
	}
	if doc != "" {
		doc += "\n"
	}
	return doc + block + "\n"
}
