package core

import (
	"strings"
	"sync"
	"testing"

	"staircase/internal/fault"
)

// TestPanicBoxRethrowsFirstWorkerPanic pins the batch-join containment
// contract: a panic on a raw worker goroutine is captured, wrapped as a
// fault.PanicError, and re-raised on the caller's goroutine after
// wg.Wait — never left to crash the process.
func TestPanicBoxRethrowsFirstWorkerPanic(t *testing.T) {
	var pb panicBox
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer pb.capture()
			if i%2 == 0 {
				panic("worker boom")
			}
		}(i)
	}
	wg.Wait()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("rethrow did not re-raise the worker panic")
		}
		err, ok := v.(error)
		if !ok || !fault.IsPanic(err) {
			t.Fatalf("rethrew %T %v, want *fault.PanicError", v, v)
		}
		if !strings.Contains(err.Error(), "worker boom") {
			t.Fatalf("panic error %q lost the original value", err)
		}
	}()
	pb.rethrow()
	t.Fatal("unreachable: rethrow returned")
}

// TestPanicBoxNoopWithoutPanic pins that rethrow is a no-op on the
// clean path.
func TestPanicBoxNoopWithoutPanic(t *testing.T) {
	var pb panicBox
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer pb.capture()
	}()
	wg.Wait()
	pb.rethrow()
}
