package main

import (
	"strings"
	"testing"

	"repro/internal/mddserve"
)

func validServeConfig() mddserve.Config {
	return mddserve.Config{
		Workers:           2,
		Shards:            4,
		QueueSize:         16,
		PerTenantInflight: 8,
		MaxSources:        512,
		MaxReceivers:      256,
		MaxNt:             512,
	}
}

func TestValidateConfig(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*mddserve.Config)
		faults  string
		wantErr string // "" means the config must be accepted
	}{
		{"defaults", func(c *mddserve.Config) {}, "", ""},
		{"zero workers", func(c *mddserve.Config) { c.Workers = 0 }, "", "-workers"},
		{"negative workers", func(c *mddserve.Config) { c.Workers = -3 }, "", "-workers"},
		{"zero shards", func(c *mddserve.Config) { c.Shards = 0 }, "", "-shards"},
		{"negative shards", func(c *mddserve.Config) { c.Shards = -1 }, "", "-shards"},
		{"zero queue", func(c *mddserve.Config) { c.QueueSize = 0 }, "", "-queue"},
		{"zero tenant inflight", func(c *mddserve.Config) { c.PerTenantInflight = 0 }, "", "-tenant-inflight"},
		{"zero max sources", func(c *mddserve.Config) { c.MaxSources = 0 }, "", "-max-sources"},
		{"zero max receivers", func(c *mddserve.Config) { c.MaxReceivers = 0 }, "", "-max-receivers"},
		{"zero max nt", func(c *mddserve.Config) { c.MaxNt = 0 }, "", "-max-nt"},
		{"negative store budget", func(c *mddserve.Config) { c.StoreBudget = -1 }, "", "-store-budget"},
		{"budget without dir", func(c *mddserve.Config) { c.StoreBudget = 1 << 20 }, "", "-store-dir"},
		{"budget with dir", func(c *mddserve.Config) {
			c.StoreBudget = 1 << 20
			c.StoreDir = t.TempDir()
		}, "", ""},
		{"zero budget means default", func(c *mddserve.Config) { c.StoreBudget = 0 }, "", ""},
		{"fault schedule", func(c *mddserve.Config) {}, "shard1:die@3,op:err@5", ""},
		{"malformed fault schedule", func(c *mddserve.Config) {}, "shard1:die@x", "-faults"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validServeConfig()
			tc.mutate(&cfg)
			err := validateConfig(&cfg, tc.faults)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateConfig(%+v, %q) = %v, want nil", cfg, tc.faults, err)
				}
				if got := cfg.Faults.String(); got != tc.faults {
					t.Fatalf("-faults %q parsed as %q", tc.faults, got)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateConfig(%+v, %q) = nil, want error naming %s", cfg, tc.faults, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateConfig error %q does not name the offending flag %s", err, tc.wantErr)
			}
		})
	}
}
