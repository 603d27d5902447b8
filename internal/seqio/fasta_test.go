package seqio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

const sample = `>seq1 first test sequence
ACGTACGT
ACGT
>seq2
uuuagc

>seq3 with  spaced   description
ACGT ACGT
`

func TestReadBasic(t *testing.T) {
	recs, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].ID != "seq1" || recs[0].Desc != "first test sequence" {
		t.Fatalf("rec0 header = %q/%q", recs[0].ID, recs[0].Desc)
	}
	if string(recs[0].Seq) != "ACGTACGTACGT" {
		t.Fatalf("rec0 seq = %s", recs[0].Seq)
	}
	if string(recs[1].Seq) != "UUUAGC" {
		t.Fatalf("lowercase not uppercased: %s", recs[1].Seq)
	}
	if string(recs[2].Seq) != "ACGTACGT" {
		t.Fatalf("inline spaces not stripped: %s", recs[2].Seq)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("ACGT\n")); err == nil {
		t.Error("sequence before header accepted")
	}
	if _, err := Read(strings.NewReader(">\nACGT\n")); err == nil {
		t.Error("empty header accepted")
	}
	if _, err := Read(strings.NewReader(">x\nAC1GT\n")); err == nil {
		t.Error("digit in sequence accepted")
	}
}

func TestReadEmpty(t *testing.T) {
	recs, err := Read(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Fatalf("Read(empty) = %v, %v", recs, err)
	}
}

// Write emits records in FASTA format with lines wrapped at width
// characters (60 when width <= 0): the writer the read tests round-trip
// through.
func Write(w io.Writer, recs []Record, width int) error {
	if width <= 0 {
		width = 60
	}
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		if rec.ID == "" {
			return fmt.Errorf("seqio: record without ID")
		}
		header := ">" + rec.ID
		if rec.Desc != "" {
			header += " " + rec.Desc
		}
		if _, err := fmt.Fprintln(bw, header); err != nil {
			return err
		}
		for off := 0; off < len(rec.Seq); off += width {
			end := off + width
			if end > len(rec.Seq) {
				end = len(rec.Seq)
			}
			if _, err := bw.Write(rec.Seq[off:end]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func TestWriteWrapsLines(t *testing.T) {
	var buf bytes.Buffer
	err := Write(&buf, []Record{{ID: "x", Seq: bytes.Repeat([]byte("A"), 130)}}, 60)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 60 + 60 + 10
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	if len(lines[1]) != 60 || len(lines[3]) != 10 {
		t.Fatalf("wrap widths wrong: %d/%d", len(lines[1]), len(lines[3]))
	}
}

func TestWriteRejectsAnonymous(t *testing.T) {
	if err := Write(&bytes.Buffer{}, []Record{{Seq: []byte("ACGT")}}, 0); err == nil {
		t.Error("record without ID accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	letters := []byte("ACDEFGHIKLMNPQRSTVWY")
	f := func(raw []byte, w uint8) bool {
		seq := make([]byte, len(raw))
		for i, b := range raw {
			seq[i] = letters[int(b)%len(letters)]
		}
		recs := []Record{{ID: "r1", Desc: "d", Seq: seq}, {ID: "r2", Seq: seq}}
		var buf bytes.Buffer
		if err := Write(&buf, recs, int(w%80)); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got) != 2 {
			return false
		}
		return bytes.Equal(got[0].Seq, seq) && got[0].ID == "r1" && got[0].Desc == "d" &&
			bytes.Equal(got[1].Seq, seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.fa")
	recs := []Record{{ID: "chr1", Desc: "toy", Seq: []byte("ACGTACGTAC")}}
	var buf bytes.Buffer
	if err := Write(&buf, recs, 4); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Seq) != "ACGTACGTAC" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.fa")); err == nil {
		t.Error("missing file read succeeded")
	}
}
