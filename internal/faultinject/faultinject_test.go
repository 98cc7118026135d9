package faultinject

import (
	"errors"
	"testing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	for i := 0; i < 3; i++ {
		if err := Hit(in, "anything"); err != nil {
			t.Fatal(err)
		}
	}
	if in.Count("anything") != 0 {
		t.Error("nil injector counted hits")
	}
}

func TestFailAtNth(t *testing.T) {
	in := New(1)
	in.FailAt("s", 3)
	for i := 1; i <= 5; i++ {
		err := Hit(in, "s")
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("call 3: err = %v", err)
			}
			var ie *InjectedError
			if !errors.As(err, &ie) || ie.Site != "s" || ie.Nth != 3 || ie.Crash {
				t.Fatalf("call 3: %+v", ie)
			}
			continue
		}
		if err != nil {
			t.Fatalf("call %d: unexpected %v", i, err)
		}
	}
	if in.Count("s") != 5 {
		t.Errorf("Count = %d", in.Count("s"))
	}
}

func TestCrashAtIsDetectable(t *testing.T) {
	in := New(1)
	in.CrashAt("d", 1)
	err := Hit(in, "d")
	if !IsCrash(err) {
		t.Fatalf("err = %v, want crash", err)
	}
	if IsCrash(errors.New("plain")) {
		t.Error("plain error classified as crash")
	}
	// one-shot: next hit passes
	if err := Hit(in, "d"); err != nil {
		t.Fatalf("second hit: %v", err)
	}
}
