package sched

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestModelQuotaSheds pins quota admission: a model at its in-flight cap
// sheds the next submission with ErrShed, the hold is released when a
// query delivers, and the lane's admitted/shed counters surface it all.
func TestModelQuotaSheds(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1, ModelQuotas: map[string]int{"m": 2}})
	s := newFakeSession(30*time.Millisecond, -1)
	addLanes(t, d, "m", s)
	// Two in-flight queries fill the quota; the third is shed immediately.
	w1 := d.SubmitAsync("m", query(1))
	w2 := d.SubmitAsync("m", query(1))
	if _, err := d.Submit("m", query(1)); !errors.Is(err, ErrShed) {
		t.Fatalf("third in-flight query must be shed, got: %v", err)
	} else if !strings.Contains(err.Error(), "quota") {
		t.Fatalf("quota shed must name the quota, got: %v", err)
	}
	if _, err := w1(); err != nil {
		t.Fatal(err)
	}
	if _, err := w2(); err != nil {
		t.Fatal(err)
	}
	// Delivery released the holds: the model admits again.
	if _, err := d.Submit("m", query(1)); err != nil {
		t.Fatalf("quota must release on delivery, got: %v", err)
	}
	st := d.Status()
	if len(st) != 1 || st[0].Admitted != 3 || st[0].Shed != 1 {
		t.Fatalf("counters: admitted=%d shed=%d, want 3/1", st[0].Admitted, st[0].Shed)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueTargetSheds pins queue-time admission: a cold (uncalibrated)
// fleet admits everything; once a flush has calibrated the model's
// latency, a submission whose estimated completion exceeds the target is
// shed descriptively while earlier ones in the same burst are admitted.
func TestQueueTargetSheds(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1, QueueTarget: 60 * time.Millisecond})
	s := newFakeSession(5*time.Millisecond, -1)
	addLanes(t, d, "m", s)
	// Cold fleet: even with a 60ms target and an unknown latency, the
	// first query must be admitted, and it calibrates the model.
	if _, err := d.Submit("m", query(4)); err != nil {
		t.Fatalf("uncalibrated fleet must admit, got: %v", err)
	}
	// Saturate: a 16-row flush (~80ms) in flight already exceeds the
	// target for anything queued behind it.
	heavy := d.SubmitAsync("m", query(16))
	waits := make([]func() ([]float64, error), 12)
	for i := range waits {
		waits[i] = d.SubmitAsync("m", query(4))
	}
	admitted, shed := 0, 0
	for i, wait := range waits {
		_, err := wait()
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrShed):
			if !strings.Contains(err.Error(), "queue-time target") {
				t.Fatalf("queue-target shed must name the target, got: %v", err)
			}
			shed++
		default:
			t.Fatalf("query %d: unexpected error: %v", i, err)
		}
	}
	if _, err := heavy(); err != nil {
		t.Fatal(err)
	}
	if shed == 0 {
		t.Fatalf("a saturated lane must shed (admitted %d, shed %d)", admitted, shed)
	}
	st := d.Status()
	if st[0].Shed != int64(shed) {
		t.Fatalf("status shed=%d, want %d", st[0].Shed, shed)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
