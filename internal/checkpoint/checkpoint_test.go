package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for v := int32(0); v < 5; v++ {
		if err := w.Append(v, []byte(fmt.Sprintf("payload-%d", v))); err != nil {
			t.Fatal(err)
		}
	}
	var got []int32
	n, err := Replay(&buf, func(v int32, p []byte) error {
		if string(p) != fmt.Sprintf("payload-%d", v) {
			t.Fatalf("payload mismatch for %d: %q", v, p)
		}
		got = append(got, v)
		return nil
	})
	if err != nil || n != 5 {
		t.Fatalf("Replay = %d, %v", n, err)
	}
	for k, v := range got {
		if v != int32(k) {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestReplayEmpty(t *testing.T) {
	n, err := Replay(bytes.NewReader(nil), func(int32, []byte) error { return nil })
	if n != 0 || err != nil {
		t.Fatalf("Replay(empty) = %d, %v", n, err)
	}
}

func TestTornTailIgnored(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(1, []byte("first"))
	w.Append(2, []byte("second"))
	data := buf.Bytes()
	// Tear the last record at various cut points: replay must yield
	// exactly the first record, never an error.
	first := len(data) / 2
	for cut := first; cut < len(data); cut++ {
		n, err := Replay(bytes.NewReader(data[:cut]), func(int32, []byte) error { return nil })
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if n > 2 {
			t.Fatalf("cut %d: replayed %d records", cut, n)
		}
	}
}

func TestCorruptionStopsReplay(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(1, []byte("first"))
	w.Append(2, []byte("second"))
	data := buf.Bytes()
	// Flip a byte inside the FIRST record's payload: nothing replays.
	data[14] ^= 0xff
	n, err := Replay(bytes.NewReader(data), func(int32, []byte) error { return nil })
	if err != nil || n != 0 {
		t.Fatalf("Replay after corruption = %d, %v", n, err)
	}
}

func TestFnErrorPropagates(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(1, []byte("x"))
	boom := errors.New("boom")
	_, err := Replay(&buf, func(int32, []byte) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("disk full")
	}
	f.after--
	return len(p), nil
}

func TestWriterSticksOnError(t *testing.T) {
	w := NewWriter(&failWriter{after: 1})
	first := w.Append(1, []byte("x"))
	if first == nil {
		t.Fatal("write through failing writer succeeded")
	}
	if err := w.Append(2, []byte("y")); err != first {
		t.Fatalf("writer did not stick on error: %v, then %v", first, err)
	}
}

func TestWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				if err := w.Append(int32(g*100+k), []byte("p")); err != nil {
					t.Errorf("append: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	n, err := Replay(&buf, func(int32, []byte) error { return nil })
	if err != nil || n != 200 {
		t.Fatalf("Replay = %d, %v", n, err)
	}
}

// Property: any payload content round-trips.
func TestRoundTripProperty(t *testing.T) {
	f := func(v int32, payload []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Append(v, payload); err != nil {
			return false
		}
		ok := false
		n, err := Replay(&buf, func(gv int32, gp []byte) error {
			ok = gv == v && bytes.Equal(gp, payload)
			return nil
		})
		return err == nil && n == 1 && ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
