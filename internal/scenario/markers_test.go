package scenario

import (
	"strings"
	"testing"
)

func TestSpliceMarkedAppendsWhenAbsent(t *testing.T) {
	doc := "# Suite\n\nbody\n"
	got := SpliceMarked(doc, SoakSectionBegin, SoakSectionEnd, "soak table")
	if !strings.HasPrefix(got, doc) {
		t.Fatalf("existing content disturbed:\n%s", got)
	}
	block, ok := ExtractMarked(got, SoakSectionBegin, SoakSectionEnd)
	if !ok {
		t.Fatal("no marked block after splice")
	}
	if want := SoakSectionBegin + "\nsoak table\n" + SoakSectionEnd; block != want {
		t.Fatalf("block = %q, want %q", block, want)
	}
}

func TestSpliceMarkedReplacesInPlace(t *testing.T) {
	doc := "head\n\n" + SoakSectionBegin + "\nold soak\n" + SoakSectionEnd + "\n\ntail\n"
	got := SpliceMarked(doc, SoakSectionBegin, SoakSectionEnd, "new soak\n")
	if !strings.Contains(got, "new soak") || strings.Contains(got, "old soak") {
		t.Fatalf("block not replaced:\n%s", got)
	}
	if !strings.HasPrefix(got, "head\n") || !strings.HasSuffix(got, "tail\n") {
		t.Fatalf("text outside the markers disturbed:\n%s", got)
	}
	if strings.Count(got, SoakSectionBegin) != 1 || strings.Count(got, SoakSectionEnd) != 1 {
		t.Fatalf("marker count wrong:\n%s", got)
	}
	// Splicing again with identical content is idempotent.
	if again := SpliceMarked(got, SoakSectionBegin, SoakSectionEnd, "new soak\n"); again != got {
		t.Fatalf("second splice changed the doc:\n%s\nvs\n%s", again, got)
	}
}

func TestExtractMarkedIncomplete(t *testing.T) {
	if _, ok := ExtractMarked("no markers here", SoakSectionBegin, SoakSectionEnd); ok {
		t.Fatal("found a block in unmarked text")
	}
	if _, ok := ExtractMarked(SoakSectionBegin+"\ndangling", SoakSectionBegin, SoakSectionEnd); ok {
		t.Fatal("found a block with no end marker")
	}
	if _, ok := ExtractMarked(SoakSectionEnd+"\n"+SoakSectionBegin, SoakSectionBegin, SoakSectionEnd); ok {
		t.Fatal("found a block with markers out of order")
	}
}
