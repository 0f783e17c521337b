// Command mddserve runs the MDD pipeline as an HTTP service: compression
// footprint jobs, TLR-MVM jobs, and fault-tolerant MDD inversion
// jobs are multiplexed onto a pool of simulated CS-2 shard runners with
// bounded-queue admission control, per-tenant concurrency limits, and
// NDJSON residual streaming.
//
// Usage:
//
//	mddserve [-addr :8700] [-workers 2] [-shards 4] [-queue 16]
//	         [-tenant-inflight 8] [-faults "shard1:die@3,op:err@5"]
//	         [-store-dir /var/tmp/mdd] [-store-budget 67108864]
//
// The service speaks the API in internal/mddserve (see its Handler doc
// for routes); internal/mddclient is the matching typed Go client.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/mddserve"
)

// validateConfig rejects nonsensical sizing flags before any listener
// or worker pool is created. Zero or negative worker/shard/queue values
// would deadlock admission (jobs accepted, nobody to run them) rather
// than fail loudly, so they are caught here with the flag name spelled
// out. It then parses the -faults schedule into cfg.Faults.
func validateConfig(cfg *mddserve.Config, faults string) error {
	checks := []struct {
		name string
		val  int
	}{
		{"-workers", cfg.Workers},
		{"-shards", cfg.Shards},
		{"-queue", cfg.QueueSize},
		{"-tenant-inflight", cfg.PerTenantInflight},
		{"-max-sources", cfg.MaxSources},
		{"-max-receivers", cfg.MaxReceivers},
		{"-max-nt", cfg.MaxNt},
	}
	for _, c := range checks {
		if c.val < 1 {
			return fmt.Errorf("%s must be at least 1 (got %d)", c.name, c.val)
		}
	}
	if cfg.StoreBudget < 0 {
		return fmt.Errorf("-store-budget must not be negative (got %d; 0 means half the kernel)", cfg.StoreBudget)
	}
	if cfg.StoreBudget > 0 && cfg.StoreDir == "" {
		return fmt.Errorf("-store-budget requires -store-dir (the budget caps a paged tile cache)")
	}
	sched, err := fault.Parse(faults)
	if err != nil {
		return fmt.Errorf("-faults %q: %w", faults, err)
	}
	cfg.Faults = sched
	return nil
}

func main() {
	addr := flag.String("addr", ":8700", "listen address")
	workers := flag.Int("workers", 2, "worker goroutines (each owns a shard runner)")
	shards := flag.Int("shards", 4, "simulated CS-2 shards per worker")
	queue := flag.Int("queue", 16, "bounded job queue size")
	tenantInflight := flag.Int("tenant-inflight", 8, "max queued+running jobs per tenant")
	maxSources := flag.Int("max-sources", 512, "largest accepted source count")
	maxReceivers := flag.Int("max-receivers", 256, "largest accepted receiver count")
	maxNt := flag.Int("max-nt", 512, "largest accepted time-axis length")
	faults := flag.String("faults", "", "fault schedule injected into every mdd job (e.g. \"shard1:die@3,op:err@5\")")
	storeDir := flag.String("store-dir", "", "serve kernels out-of-core from paged tile stores in this directory")
	storeBudget := flag.Int64("store-budget", 0, "resident-byte budget per kernel tile cache (0 = half the kernel)")
	flag.Parse()

	cfg := mddserve.Config{
		Workers:           *workers,
		Shards:            *shards,
		QueueSize:         *queue,
		PerTenantInflight: *tenantInflight,
		MaxSources:        *maxSources,
		MaxReceivers:      *maxReceivers,
		MaxNt:             *maxNt,
		StoreDir:          *storeDir,
		StoreBudget:       *storeBudget,
	}
	if err := validateConfig(&cfg, *faults); err != nil {
		log.Fatalf("mddserve: %v", err)
	}
	if *storeDir != "" {
		if err := os.MkdirAll(*storeDir, 0o755); err != nil {
			log.Fatalf("mddserve: creating -store-dir: %v", err)
		}
	}

	srv := mddserve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("mddserve: listen %s: %v", *addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	log.Printf("mddserve: serving on %s (%d workers x %d shards, queue %d, tenant inflight %d)",
		ln.Addr(), *workers, *shards, *queue, *tenantInflight)

	done := make(chan struct{})
	go func() {
		defer close(done)
		if serveErr := httpSrv.Serve(ln); serveErr != nil && serveErr != http.ErrServerClosed {
			log.Printf("mddserve: serve: %v", serveErr)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "mddserve: shutting down")
	// Stop admitting, let queued and running jobs finish, then drain the
	// HTTP side.
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("mddserve: shutdown: %v", err)
	}
	<-done
}
