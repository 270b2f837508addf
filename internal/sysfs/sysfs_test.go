package sysfs

import (
	"errors"
	"fmt"
	"testing"
)

func TestReadMissing(t *testing.T) {
	fs := New()
	if _, err := fs.Read("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("expected ErrNotExist, got %v", err)
	}
}

func TestCreateReadWrite(t *testing.T) {
	fs := New()
	fs.Create(CPUScalingGovernor, "interactive", true)
	got, err := fs.Read(CPUScalingGovernor)
	if err != nil || got != "interactive" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if err := fs.Write(CPUScalingGovernor, "userspace\n"); err != nil {
		t.Fatal(err)
	}
	got, _ = fs.Read(CPUScalingGovernor)
	if got != "userspace" {
		t.Fatalf("value after write = %q, want trimmed %q", got, "userspace")
	}
}

func TestReadOnlyRejectsWrite(t *testing.T) {
	fs := New()
	fs.Create(CPUAvailableFreqs, "300000 422400", false)
	if err := fs.Write(CPUAvailableFreqs, "x"); !errors.Is(err, ErrPermission) {
		t.Fatalf("expected ErrPermission, got %v", err)
	}
}

func TestWriteMissing(t *testing.T) {
	fs := New()
	if err := fs.Write("/nope", "1"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("expected ErrNotExist, got %v", err)
	}
}

func TestPathCanonicalization(t *testing.T) {
	fs := New()
	fs.Create("foo/bar/", "v", true)
	if got, err := fs.Read("/foo/bar"); err != nil || got != "v" {
		t.Fatalf("canonicalized read = %q, %v", got, err)
	}
	if !fs.Exists("  /foo/bar ") {
		t.Fatal("Exists should canonicalize")
	}
}

func TestWriteHookObservesAndRejects(t *testing.T) {
	fs := New()
	fs.Create(CPUScalingSetSpeed, "300000", true)
	var sawOld, sawNew string
	fs.OnWrite(CPUScalingSetSpeed, func(path, old, new string) error {
		sawOld, sawNew = old, new
		if new == "999" {
			return ErrInvalid
		}
		return nil
	})
	if err := fs.Write(CPUScalingSetSpeed, "422400"); err != nil {
		t.Fatal(err)
	}
	if sawOld != "300000" || sawNew != "422400" {
		t.Fatalf("hook saw (%q,%q)", sawOld, sawNew)
	}
	if err := fs.Write(CPUScalingSetSpeed, "999"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("expected hook rejection, got %v", err)
	}
	if got, _ := fs.Read(CPUScalingSetSpeed); got != "422400" {
		t.Fatalf("rejected write must keep old value, got %q", got)
	}
}

func TestOnWriteMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().OnWrite("/nope", func(string, string, string) error { return nil })
}

func TestDynamicFile(t *testing.T) {
	fs := New()
	n := 0
	fs.CreateDynamic(CPUInfoCurFreq, func(string) string {
		n++
		return fmt.Sprintf("%d", n*100)
	})
	if got, _ := fs.Read(CPUInfoCurFreq); got != "100" {
		t.Fatalf("first dynamic read = %q", got)
	}
	if got, _ := fs.Read(CPUInfoCurFreq); got != "200" {
		t.Fatalf("second dynamic read = %q", got)
	}
}

func TestSetBypassesHooks(t *testing.T) {
	fs := New()
	fs.Create(CPUScalingCurFreq, "300000", false)
	fs.Set(CPUScalingCurFreq, "2649600")
	if got, _ := fs.Read(CPUScalingCurFreq); got != "2649600" {
		t.Fatalf("Set did not take: %q", got)
	}
}

func TestSetMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Set("/nope", "1")
}

func TestList(t *testing.T) {
	fs := New()
	fs.Create(CPUScalingGovernor, "", true)
	fs.Create(CPUScalingSetSpeed, "", true)
	fs.Create(DevFreqGovernor, "", true)
	got := fs.List(CPUFreqDir)
	if len(got) != 2 {
		t.Fatalf("List(%q) = %v", CPUFreqDir, got)
	}
	if got[0] != CPUScalingGovernor {
		t.Fatalf("List not sorted: %v", got)
	}
}

// TestOwnerInterleavedAccess pins read-after-write under the
// single-owner contract: one goroutine interleaves writes and reads, and
// every read returns the most recent successful write.
func TestOwnerInterleavedAccess(t *testing.T) {
	fs := New()
	fs.Create("/x", "0", true)
	for i := 0; i < 8; i++ {
		for j := 0; j < 100; j++ {
			want := fmt.Sprintf("%d", i*100+j)
			if err := fs.Write("/x", want); err != nil {
				t.Fatal(err)
			}
			if got, err := fs.Read("/x"); err != nil || got != want {
				t.Fatalf("Read after Write(%q) = %q, %v", want, got, err)
			}
		}
	}
}

// TestGenMovesOnStoredValueChanges: the generation moves on every change
// to a stored value — successful Write, Set, Create, RestoreValues — and
// on nothing else: reads, rejected writes and wiring leave it in place.
func TestGenMovesOnStoredValueChanges(t *testing.T) {
	fs := New()
	moves := func(name string, want bool, op func()) {
		t.Helper()
		before := fs.Gen()
		op()
		if moved := fs.Gen() != before; moved != want {
			t.Fatalf("%s: Gen moved = %v, want %v", name, moved, want)
		}
	}
	moves("Create", true, func() { fs.Create("/a", "1", true) })
	moves("Create read-only", true, func() { fs.Create("/ro", "1", false) })
	moves("Write", true, func() { _ = fs.Write("/a", "2") })
	moves("Write same value", true, func() { _ = fs.Write("/a", "2") })
	moves("Set", true, func() { fs.Set("/ro", "3") })
	moves("RestoreValues", true, func() {
		if err := fs.RestoreValues(map[string]string{"/a": "4"}); err != nil {
			t.Fatal(err)
		}
	})

	moves("Read", false, func() { _, _ = fs.Read("/a") })
	moves("Exists/List/Export", false, func() { fs.Exists("/a"); fs.List("/"); fs.Export() })
	moves("Write missing", false, func() { _ = fs.Write("/nope", "1") })
	moves("Write read-only", false, func() { _ = fs.Write("/ro", "1") })
	moves("CreateDynamic", false, func() { fs.CreateDynamic("/dyn", func(string) string { return "d" }) })
	moves("OnWrite", false, func() { fs.OnWrite("/a", func(_, _, v string) error { return hookVerdict(v) }) })
	moves("hook-rejected Write", false, func() { _ = fs.Write("/a", "bad") })
	moves("SetInterceptor", false, func() { fs.SetInterceptor(func(_, v string) error { return hookVerdict(v) }) })
	moves("intercepted Write", false, func() { _ = fs.Write("/a", "bad") })
	moves("accepted Write", true, func() { _ = fs.Write("/a", "5") })
}

func hookVerdict(v string) error {
	if v == "bad" {
		return ErrInvalid
	}
	return nil
}
