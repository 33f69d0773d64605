package cluster

import (
	"math"
	"strings"
	"testing"
)

// TestSpecRejectsBadValues checks that out-of-range spec values are
// errors rather than silently replaced by the base's defaults, and that
// an oversized shape is refused before Deploy would have to build it.
func TestSpecRejectsBadValues(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"negative hosts", Spec{Base: "scenario1", Hosts: -1}, "hosts"},
		{"negative targets", Spec{Base: "scenario2", TargetsPerHost: -4}, "targets_per_host"},
		{"negative stripe count", Spec{Base: "scenario1", DefaultStripeCount: -2}, "default_stripe_count"},
		{"negative chunk size", Spec{Base: "scenario1", ChunkSizeKiB: -5}, "chunk_size_kib"},
		{"overflowing chunk size", Spec{Base: "scenario1", ChunkSizeKiB: math.MaxInt64 / 512}, "chunk_size_kib"},
		{"negative mds rate", Spec{Base: "scenario1", MDSOpRate: -1}, "mds_op_rate"},
		{"NaN mds rate", Spec{Base: "scenario1", MDSOpRate: math.NaN()}, "mds_op_rate"},
		{"infinite mds rate", Spec{Base: "scenario1", MDSOpRate: math.Inf(1)}, "mds_op_rate"},
		{"NaN link rate", Spec{Base: "custom", LinkRateMiBs: math.NaN()}, "link_rate_mibs"},
		{"infinite link rate", Spec{Base: "custom", LinkRateMiBs: math.Inf(1)}, "link_rate_mibs"},
		{"negative link rate", Spec{Base: "scenario1", LinkRateMiBs: -2500}, "link_rate_mibs"},
		{"huge host count", Spec{Base: "scenario1", Hosts: 100_000_000}, "target limit"},
		{"huge custom shape", Spec{Base: "custom", Hosts: 1 << 10, TargetsPerHost: 1 << 10, LinkRateMiBs: 2500}, "target limit"},
		{"overflowing shape", Spec{Base: "scenario2", Hosts: math.MaxInt, TargetsPerHost: math.MaxInt}, "target limit"},
	}
	for _, tc := range cases {
		_, err := tc.spec.Platform()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	// The limit itself is a legal shape, and deploys.
	p, err := Spec{Base: "custom", Hosts: MaxSpecTargets / 8, TargetsPerHost: 8, LinkRateMiBs: 2500}.Platform()
	if err != nil {
		t.Fatalf("spec at the target limit rejected: %v", err)
	}
	if _, err := p.Deploy(); err != nil {
		t.Fatalf("spec at the target limit failed to deploy: %v", err)
	}
}

// FuzzSpec feeds arbitrary JSON through ParseSpec → Platform → Deploy:
// nothing may panic, and every spec Platform accepts must deploy.
func FuzzSpec(f *testing.F) {
	f.Add([]byte(`{"name":"a","base":"scenario1"}`))
	f.Add([]byte(`{"base":"scenario2","hosts":4,"targets_per_host":2,"chooser":"balanced","default_stripe_count":8,"chunk_size_kib":1024,"mds_op_rate":5000}`))
	f.Add([]byte(`{"base":"custom","hosts":3,"targets_per_host":2,"link_rate_mibs":2500,"chooser":"random"}`))
	f.Add([]byte(`{"base":"scenario1","chunk_size_kib":-5,"mds_op_rate":-1}`))
	f.Add([]byte(`{"base":"custom","hosts":100000000,"link_rate_mibs":1e308}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		p, err := s.Platform()
		if err != nil {
			return
		}
		if n := p.FS.Hosts * p.FS.TargetsPerHost; n <= 0 || n > MaxSpecTargets {
			t.Fatalf("accepted spec %+v has %d targets", s, n)
		}
		if _, err := p.Deploy(); err != nil {
			t.Fatalf("accepted spec %+v failed to deploy: %v", s, err)
		}
	})
}
