// Package seqio reads FASTA files, the input format of the paper's
// bioinformatics workloads (sequence alignment, RNA folding).
package seqio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// Record is one FASTA entry.
type Record struct {
	// ID is the first whitespace-delimited token of the header line.
	ID string
	// Desc is the rest of the header line.
	Desc string
	// Seq is the sequence with whitespace removed, uppercased.
	Seq []byte
}

// Read parses all FASTA records from r.
func Read(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		recs []Record
		cur  *Record
		line int
	)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, ">") {
			header := strings.TrimSpace(text[1:])
			if header == "" {
				return nil, fmt.Errorf("seqio: empty FASTA header at line %d", line)
			}
			id, desc, _ := strings.Cut(header, " ")
			recs = append(recs, Record{ID: id, Desc: strings.TrimSpace(desc)})
			cur = &recs[len(recs)-1]
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("seqio: sequence data before any header at line %d", line)
		}
		for _, c := range []byte(strings.ToUpper(text)) {
			if c == ' ' || c == '\t' {
				continue
			}
			if (c < 'A' || c > 'Z') && c != '*' && c != '-' {
				return nil, fmt.Errorf("seqio: invalid sequence character %q at line %d", c, line)
			}
			cur.Seq = append(cur.Seq, c)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("seqio: %w", err)
	}
	return recs, nil
}

// ReadFile parses a FASTA file from disk.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
