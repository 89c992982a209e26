package megamimo_test

import (
	"bytes"
	"testing"

	"megamimo"
)

// TestPublicAPIQuickstart runs the README example through the public
// facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := megamimo.DefaultConfig(2, 2, 18, 24)
	cfg.Seed = 42
	net, err := megamimo.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	pkt0 := bytes.Repeat([]byte{0xA5}, 400)
	pkt1 := bytes.Repeat([]byte{0x5A}, 400)
	res, err := net.JointTransmit([][]byte{pkt0, pkt1}, megamimo.MCS2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK[0] || !res.OK[1] {
		t.Fatalf("delivery: %v", res.OK)
	}
	if !bytes.Equal(res.Frames[0].Payload, pkt0) || !bytes.Equal(res.Frames[1].Payload, pkt1) {
		t.Fatal("payloads corrupted through the public API")
	}
}

// TestPublicAPIDiversity exercises the diversity facade path.
func TestPublicAPIDiversity(t *testing.T) {
	cfg := megamimo.DefaultConfig(4, 1, 8, 10)
	cfg.Seed = 43
	net, err := megamimo.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Measure(); err != nil {
		t.Fatal(err)
	}
	sub := megamimo.DiversitySubcarrierSNR(net.Msmt, 0, cfg.NoiseVar)
	if len(sub) == 0 || sub[0] <= 0 {
		t.Fatalf("diversity SNR prediction: %v", sub[:min(3, len(sub))])
	}
	res, err := net.DiversityTransmit(0, make([]byte, 300), megamimo.MCS2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK[0] {
		t.Fatal("diversity frame lost at 4 APs over 8-10 dB links")
	}
}

// TestPublicAPIPrecoders exercises the precoder constructors.
func TestPublicAPIPrecoders(t *testing.T) {
	cfg := megamimo.DefaultConfig(3, 3, 18, 22)
	cfg.Seed = 44
	net, err := megamimo.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Measure(); err != nil {
		t.Fatal(err)
	}
	zf, err := net.Precode(0)
	if err != nil {
		t.Fatal(err)
	}
	if zf.PowerScale <= 0 || zf.Streams != 3 {
		t.Fatalf("ZF precoder malformed: %+v", zf)
	}
	dv, err := megamimo.ComputeDiversity(net.Msmt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dv.Streams != 1 {
		t.Fatal("diversity precoder malformed")
	}
}
