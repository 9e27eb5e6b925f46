package scanfarm

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/durable"
	"github.com/golitho/hsd/internal/geom"
)

func testMeta() Meta {
	return Meta{
		Chip:      "chip",
		Shapes:    42,
		Bounds:    geom.R(0, 0, 8192, 8192),
		ClipNM:    1024,
		CoreFrac:  0.5,
		StrideNM:  512,
		ShardRows: 2,
		NumShards: 8,
		SkipEmpty: true,
		Detector:  "density",
	}
}

func testRecords() []ShardRecord {
	return []ShardRecord{
		{ShardID: 0, State: ShardDone, Attempts: 1, Findings: []core.Finding{
			{Center: geom.Pt(256, 256), Score: 0.91},
			{Center: geom.Pt(768, 256), Score: 0.77},
		}},
		{ShardID: 3, State: ShardQuarantined, Attempts: 3, Err: "detector panic: poison window"},
		{ShardID: 1, State: ShardDone, Attempts: 2, Findings: []core.Finding{
			{Center: geom.Pt(256, 1280), Score: 0.5},
		}},
		{ShardID: 2, State: ShardDone, Attempts: 1},
	}
}

func writeTestJournal(t *testing.T) (string, Meta, []ShardRecord) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.journal")
	meta := testMeta()
	j, err := CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path, meta, recs
}

func TestJournalRoundTrip(t *testing.T) {
	path, meta, recs := writeTestJournal(t)
	gotMeta, got, _, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta %+v, want %+v", gotMeta, meta)
	}
	if len(got) != len(recs) {
		t.Fatalf("loaded %d records, want %d", len(got), len(recs))
	}
	for _, want := range recs {
		if !reflect.DeepEqual(got[want.ShardID], want) {
			t.Fatalf("record %d: %+v, want %+v", want.ShardID, got[want.ShardID], want)
		}
	}
}

// TestJournalTornTailEveryByte is the crash-tolerance sweep: truncating
// the journal at every possible byte offset must either load cleanly
// (prefix of intact records) or — for a cut inside the header — fail
// loudly; a torn tail never corrupts, duplicates, or invents a record.
func TestJournalTornTailEveryByte(t *testing.T) {
	path, meta, recs := writeTestJournal(t)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, off, err := LoadJournal(path); err != nil {
		t.Fatal(err)
	} else if off != int64(len(full)) {
		t.Fatalf("intact journal valid offset %d, want %d", off, len(full))
	}

	dir := t.TempDir()
	torn := filepath.Join(dir, "torn.journal")
	headerLen := headerFrameLen(t, full)
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		gotMeta, got, off, err := LoadJournal(torn)
		if cut < headerLen {
			if err == nil {
				t.Fatalf("cut %d inside header loaded silently", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if gotMeta != meta {
			t.Fatalf("cut %d: meta %+v", cut, gotMeta)
		}
		if off > int64(cut) {
			t.Fatalf("cut %d: valid offset %d beyond file", cut, off)
		}
		// Every loaded record must be byte-exactly one we wrote.
		for id, rec := range got {
			found := false
			for _, want := range recs {
				if want.ShardID == id && reflect.DeepEqual(rec, want) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("cut %d: invented or corrupted record %+v", cut, rec)
			}
		}
		// And a full-length cut recovers everything.
		if cut == len(full) && len(got) != len(recs) {
			t.Fatalf("full journal recovered %d records, want %d", len(got), len(recs))
		}
	}
}

// headerFrameLen computes the byte length of the header frame.
func headerFrameLen(t *testing.T, full []byte) int {
	t.Helper()
	dir := t.TempDir()
	p := filepath.Join(dir, "probe.journal")
	// Binary search the smallest prefix that loads without error: that
	// is exactly the header frame.
	lo, hi := 1, len(full)
	for lo < hi {
		mid := (lo + hi) / 2
		if err := os.WriteFile(p, full[:mid], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := LoadJournal(p); err != nil {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestJournalBitFlipRejected: a flipped payload byte fails the CRC and
// the load keeps only records before the corruption.
func TestJournalBitFlipRejected(t *testing.T) {
	path, _, _ := writeTestJournal(t)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := headerFrameLen(t, full)
	// Flip a byte inside the first record's payload (past its magic and
	// frame header).
	flip := headerLen + len("HSDSJr1\n") + durable.FrameHeaderLen + 3
	full[flip] ^= 0xFF
	corrupt := filepath.Join(t.TempDir(), "corrupt.journal")
	if err := os.WriteFile(corrupt, full, 0o644); err != nil {
		t.Fatal(err)
	}
	_, got, off, err := LoadJournal(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("records after the corrupt frame were kept: %d", len(got))
	}
	if off != int64(headerLen) {
		t.Fatalf("valid offset %d, want header end %d", off, headerLen)
	}
}

// TestResumeJournalTornAppend: resuming over a torn tail truncates it
// so appended records form a valid journal again.
func TestResumeJournalTornAppend(t *testing.T) {
	path, meta, recs := writeTestJournal(t)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the last record.
	if err := os.WriteFile(path, full[:len(full)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	j, completed, err := ResumeJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != len(recs)-1 {
		t.Fatalf("resumed with %d records, want %d", len(completed), len(recs)-1)
	}
	extra := ShardRecord{ShardID: 7, State: ShardDone, Attempts: 1,
		Findings: []core.Finding{{Center: geom.Pt(99, 99), Score: 1}}}
	if err := j.Append(extra); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, got, _, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("after torn append: %d records, want %d", len(got), len(recs))
	}
	if !reflect.DeepEqual(got[7], extra) {
		t.Fatalf("appended record %+v, want %+v", got[7], extra)
	}
}
