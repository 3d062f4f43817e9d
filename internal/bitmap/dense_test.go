package bitmap

import "testing"

func TestDenseSetGet(t *testing.T) {
	d := NewDense(200)
	if len(d) != DenseWords(200) {
		t.Fatalf("words = %d, want %d", len(d), DenseWords(200))
	}
	codes := []uint32{0, 1, 63, 64, 65, 127, 128, 199}
	for _, c := range codes {
		d.Set(c)
	}
	for _, c := range codes {
		if !d.Get(c) {
			t.Errorf("Get(%d) = false after Set", c)
		}
	}
	for _, c := range []uint32{2, 62, 66, 126, 129, 198} {
		if d.Get(c) {
			t.Errorf("Get(%d) = true, never set", c)
		}
	}
	if got := d.Count(); got != len(codes) {
		t.Errorf("Count = %d, want %d", got, len(codes))
	}
	// Codes beyond the backing words read as absent (concurrent inserts may
	// register values after a query snapshot was taken).
	if d.Get(4096) {
		t.Error("out-of-range Get = true")
	}
	d.Clear()
	if d.Count() != 0 {
		t.Errorf("Count after Clear = %d", d.Count())
	}
	for _, c := range codes {
		if d.Get(c) {
			t.Errorf("Get(%d) = true after Clear", c)
		}
	}
}

func TestDenseZeroLength(t *testing.T) {
	var d Dense
	if d.Get(0) || d.Count() != 0 {
		t.Error("zero-length Dense is not empty")
	}
	if DenseWords(0) != 0 || DenseWords(1) != 1 || DenseWords(64) != 1 || DenseWords(65) != 2 {
		t.Error("DenseWords boundaries wrong")
	}
}

// TestDenseSetRange holds SetRange to Set, bit by bit, on ranges inside one
// word, across word boundaries and spanning whole words, over bits already
// set.
func TestDenseSetRange(t *testing.T) {
	for _, r := range [][2]uint32{{0, 0}, {5, 5}, {0, 1}, {3, 9}, {0, 64}, {63, 65}, {60, 130}, {64, 192}, {1, 255}, {130, 256}} {
		got, want := NewDense(256), NewDense(256)
		got.Set(7)
		want.Set(7)
		got.SetRange(r[0], r[1])
		for c := r[0]; c < r[1]; c++ {
			want.Set(c)
		}
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("SetRange(%d, %d): word %d is %#x, want %#x", r[0], r[1], w, got[w], want[w])
			}
		}
	}
}
