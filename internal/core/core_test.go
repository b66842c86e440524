package core

import (
	"errors"
	"testing"
	"time"

	"calliope/internal/units"
)

func validCBRType() ContentType {
	return ContentType{
		Name:      "mpeg1",
		Class:     ConstantRate,
		Bandwidth: 1500 * units.Kbps,
		Storage:   1500 * units.Kbps,
		Protocol:  "cbr",
	}
}

func TestContentTypeValidateCBR(t *testing.T) {
	ct := validCBRType()
	if err := ct.Validate(); err != nil {
		t.Fatalf("valid CBR type rejected: %v", err)
	}
}

func TestContentTypeValidateVBR(t *testing.T) {
	ct := ContentType{
		Name:      "nv",
		Class:     VariableRate,
		Bandwidth: 5400 * units.Kbps, // near peak (§2.2)
		Storage:   877 * units.Kbps,  // near average
		Protocol:  "rtp",
	}
	if err := ct.Validate(); err != nil {
		t.Fatalf("valid VBR type rejected: %v", err)
	}
}

func TestContentTypeValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*ContentType)
	}{
		{"no name", func(ct *ContentType) { ct.Name = "" }},
		{"no bandwidth", func(ct *ContentType) { ct.Bandwidth = 0 }},
		{"no storage", func(ct *ContentType) { ct.Storage = 0 }},
		{"no protocol", func(ct *ContentType) { ct.Protocol = "" }},
		{"CBR rates differ", func(ct *ContentType) { ct.Storage = ct.Bandwidth / 2 }},
	}
	for _, c := range cases {
		ct := validCBRType()
		c.mut(&ct)
		if err := ct.Validate(); err == nil {
			t.Errorf("%s: expected validation error, got nil", c.name)
		} else if !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: error %v is not ErrBadRequest", c.name, err)
		}
	}
}

func TestVariableRateStorageAboveBandwidthRejected(t *testing.T) {
	ct := ContentType{
		Name:      "bad-vbr",
		Class:     VariableRate,
		Bandwidth: 500 * units.Kbps,
		Storage:   877 * units.Kbps,
		Protocol:  "rtp",
	}
	if err := ct.Validate(); err == nil {
		t.Fatal("VBR type with storage > bandwidth accepted")
	}
}

func TestCompositeTypeValidate(t *testing.T) {
	seminar := ContentType{
		Name:       "seminar",
		Components: []string{"rtp-video", "vat-audio"},
	}
	if !seminar.Composite() {
		t.Fatal("seminar should be composite")
	}
	if err := seminar.Validate(); err != nil {
		t.Fatalf("composite type rejected: %v", err)
	}
	seminar.Protocol = "rtp"
	if err := seminar.Validate(); err == nil {
		t.Fatal("composite type with a protocol accepted")
	}
}

func TestStreamSpecValidate(t *testing.T) {
	good := StreamSpec{
		Stream:   1,
		Content:  "movie",
		Protocol: "cbr",
		Rate:     1500 * units.Kbps,
		DestAddr: "127.0.0.1:9000",
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid play spec rejected: %v", err)
	}

	rec := good
	rec.Record = true
	rec.DestAddr = ""
	rec.Estimate = time.Hour
	if err := rec.Validate(); err != nil {
		t.Fatalf("valid record spec rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*StreamSpec)
	}{
		{"no content", func(s *StreamSpec) { s.Content = "" }},
		{"no protocol", func(s *StreamSpec) { s.Protocol = "" }},
		{"no rate", func(s *StreamSpec) { s.Rate = 0 }},
		{"negative disk", func(s *StreamSpec) { s.Disk = -1 }},
		{"play without dest", func(s *StreamSpec) { s.DestAddr = "" }},
		{"record without estimate", func(s *StreamSpec) { s.Record = true; s.Estimate = 0 }},
	}
	for _, c := range cases {
		s := good
		c.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
}

func TestStringers(t *testing.T) {
	if got := FastBackward.String(); got != "fast-backward" {
		t.Errorf("FastBackward = %q", got)
	}
	if got := Normal.String(); got != "normal" {
		t.Errorf("Normal = %q", got)
	}
	if got := ConstantRate.String(); got != "constant" {
		t.Errorf("ConstantRate = %q", got)
	}
	if got := VariableRate.String(); got != "variable" {
		t.Errorf("VariableRate = %q", got)
	}
	d := DiskID{MSU: "msu1", N: 2}
	if got := d.String(); got != "msu1/disk2" {
		t.Errorf("DiskID = %q", got)
	}
}
