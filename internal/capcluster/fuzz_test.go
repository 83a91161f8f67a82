package capcluster

import (
	"testing"
	"time"
)

// FuzzTakeDelta feeds arbitrary bytes to the one CreditDelta decoder
// the stream and the ?once=1 fallback share. No input may panic, and a
// delta outside the headroom window must never reach the gauge: the
// backend's ceiling is set far above headroomCeiling, so a leak would
// show as credits beyond it. The seed corpus is testdata/fuzz.
func FuzzTakeDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		b := newBackend("http://127.0.0.1:1", "b0", 0, 7, 1<<30, 2, time.Second, 0)
		d, err := b.takeDelta(raw, true)
		if err != nil {
			if b.Credits() != 7 || b.feedDeltas.Load() != 0 {
				t.Fatalf("rejected delta reached the gauge: credits %d", b.Credits())
			}
			if b.badHeaders.Load() != 1 {
				t.Fatalf("rejected delta not counted")
			}
			return
		}
		if d.QueueFree < 0 || d.QueueFree > headroomCeiling {
			t.Fatalf("accepted out-of-range queue_free %d", d.QueueFree)
		}
		want := d.QueueFree
		switch {
		case d.Seq == 0:
			want = 7 // not newer than "never applied": dropped by the seq guard
		case d.Draining:
			want = 0
		}
		if got := b.Credits(); got != want {
			t.Fatalf("credits = %d after %+v, want %d", got, d, want)
		}
	})
}
