package sysfs

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// FuzzClean checks the path canonicalizer's invariants on arbitrary
// input: exactly one leading slash, no trailing slash (except the root
// itself), no surrounding whitespace, and idempotence — a canonical path
// canonicalizes to itself, which is what lets every FS entry point call
// clean unconditionally.
func FuzzClean(f *testing.F) {
	for _, seed := range []string{
		"", "/", "//", "a", "/a", "a/", "/a/b/c", "  /a/b  ", "///x///",
		CPUScalingGovernor, DevFreqSetFreq, "\t/weird path/\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, path string) {
		got := clean(path)
		if !strings.HasPrefix(got, "/") {
			t.Fatalf("clean(%q) = %q: no leading slash", path, got)
		}
		if strings.HasPrefix(got, "//") {
			t.Fatalf("clean(%q) = %q: doubled leading slash", path, got)
		}
		if got != "/" && strings.HasSuffix(got, "/") {
			t.Fatalf("clean(%q) = %q: trailing slash", path, got)
		}
		if strings.TrimSpace(got) != got {
			t.Fatalf("clean(%q) = %q: surrounding whitespace survived", path, got)
		}
		if again := clean(got); again != got {
			t.Fatalf("clean not idempotent: %q -> %q -> %q", path, got, again)
		}
	})
}

// A write rejected by the file's hook must leave the old value intact:
// every read between rejected writes sees it, and so does the next
// hook invocation's old argument — no torn or transient state.
func TestRejectedWriteKeepsOldValue(t *testing.T) {
	fs := New()
	const path = "/x/guarded"
	const good = "steady"
	fs.Create(path, good, true)
	rejection := errors.New("nope")
	fs.OnWrite(path, func(_, old, new string) error {
		if old != good {
			t.Errorf("hook saw old value %q, want %q", old, good)
		}
		if new != good {
			return rejection
		}
		return nil
	})

	for i := 0; i < 500; i++ {
		if err := fs.Write(path, "corrupt"); !errors.Is(err, rejection) {
			t.Fatalf("write %d: err = %v, want hook rejection", i, err)
		}
		if v, err := fs.Read(path); err != nil || v != good {
			t.Fatalf("read after rejected write %d = %q, %v, want %q", i, v, err, good)
		}
	}
}

// Same invariant for the tree-wide interceptor (the fault-injection
// surface): a rejected write never mutates the file, interleaved with
// writes it lets through.
func TestInterceptorRejectionKeepsOldValue(t *testing.T) {
	fs := New()
	const path = "/x/flaky"
	fs.Create(path, "0", true)
	fs.SetInterceptor(func(p, value string) error {
		if value == "bad" {
			return ErrBusy
		}
		return nil
	})

	for i := 0; i < 200; i++ {
		want := strconv.Itoa(i)
		if err := fs.Write(path, want); err != nil {
			t.Fatalf("clean write %d failed: %v", i, err)
		}
		if err := fs.Write(path, "bad"); !errors.Is(err, ErrBusy) {
			t.Fatalf("intercepted write %d passed: %v", i, err)
		}
		if v, _ := fs.Read(path); v != want {
			t.Fatalf("value = %q after intercepted write, want %q", v, want)
		}
	}
}
