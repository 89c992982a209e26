package core

import (
	"testing"

	"megamimo/internal/phy"
)

// API-edge tests: every misuse path must fail loudly and cleanly.

func TestJointTransmitValidation(t *testing.T) {
	n := buildNet(t, 2, 2, 18, 24, 150)
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	// Wrong payload count.
	if _, err := n.JointTransmit([][]byte{{1}}, phy.MCS0); err == nil {
		t.Fatal("wrong payload count accepted")
	}
	// Mismatched payload sizes break frame alignment.
	if _, err := n.JointTransmit([][]byte{make([]byte, 100), make([]byte, 200)}, phy.MCS0); err == nil {
		t.Fatal("mismatched sizes accepted")
	}
	// All-silent transmission is meaningless.
	if _, err := n.JointTransmit(make([][]byte, 2), phy.MCS0); err == nil {
		t.Fatal("all-nil payloads accepted")
	}
	// Invalid MCS surfaces the PHY error.
	if _, err := n.JointTransmit([][]byte{make([]byte, 100), make([]byte, 100)}, phy.MCS(11)); err == nil {
		t.Fatal("invalid MCS accepted")
	}
}

func TestDiversityTransmitValidation(t *testing.T) {
	n := buildNet(t, 2, 2, 18, 24, 151)
	if _, err := n.DiversityTransmit(0, make([]byte, 10), phy.MCS0); err == nil {
		t.Fatal("diversity before Measure accepted")
	}
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.DiversityTransmit(9, make([]byte, 10), phy.MCS0); err == nil {
		t.Fatal("out-of-range stream accepted")
	}
}

func TestNullingINRValidation(t *testing.T) {
	cfg := DefaultConfig(1, 1, 18, 24)
	cfg.Seed = 152
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.NullingINR(0, 100, phy.MCS0); err == nil {
		t.Fatal("single-stream INR accepted")
	}
}

func TestMeasurementMatrixAccessor(t *testing.T) {
	n := buildNet(t, 2, 2, 18, 24, 153)
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	if m := n.Msmt.Matrix(n.Msmt.Bins[0]); m == nil || m.Rows != 2 {
		t.Fatal("Matrix accessor broken")
	}
	if n.Msmt.Matrix(0) != nil { // DC is never occupied
		t.Fatal("Matrix returned estimate for DC")
	}
}

func TestMeasureDecoupledValidation(t *testing.T) {
	n := buildNet(t, 2, 2, 18, 24, 154)
	if err := n.MeasureDecoupled(nil, 0); err == nil {
		t.Fatal("empty groups accepted")
	}
	// Groups that do not cover every client leave streams unreported.
	if err := n.MeasureDecoupled([][]int{{0}}, 0); err == nil {
		t.Fatal("partial coverage accepted")
	}
}

func TestPrecodeValidation(t *testing.T) {
	// More streams than antennas cannot be zero-forced.
	cfg := DefaultConfig(1, 2, 18, 24)
	cfg.Seed = 155
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Precode(0); err == nil {
		t.Fatal("precode before any measurement accepted")
	}
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Precode(0); err == nil {
		t.Fatal("overloaded spatial dimensions accepted")
	}
}

func TestSetLeadOutOfRangeErrors(t *testing.T) {
	n := buildNet(t, 2, 2, 18, 24, 156)
	if err := n.SetLead(99); err == nil {
		t.Fatal("SetLead(99) accepted an out-of-range index")
	}
	if err := n.SetLead(-1); err == nil {
		t.Fatal("SetLead(-1) accepted a negative index")
	}
	if n.Lead().Index != 0 {
		t.Fatalf("failed SetLead moved the lead to %d", n.Lead().Index)
	}
	if err := n.SetLead(1); err != nil {
		t.Fatalf("SetLead(1): %v", err)
	}
	if n.Lead().Index != 1 {
		t.Fatal("SetLead(1) failed")
	}
}

func TestAdvanceTimeAndNow(t *testing.T) {
	n := buildNet(t, 1, 1, 18, 24, 157)
	t0 := n.Now()
	n.AdvanceTime(12345)
	if n.Now() != t0+12345 {
		t.Fatal("AdvanceTime arithmetic wrong")
	}
}
