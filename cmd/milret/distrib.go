package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"milret"
	"milret/internal/mat"
	"milret/internal/remote"
	"milret/internal/server"
)

// cmdShardServe serves one partition of a distributed topology: the
// binary shard RPC (consumed by a coordinator) mounted at /rpc next to
// the ordinary JSON surface, so the host stays curl-inspectable and can
// still be operated directly.
func cmdShardServe(args []string) error {
	fs := flag.NewFlagSet("shard-serve", flag.ExitOnError)
	dbPath := fs.String("db", "db.milret", "this partition's database path (one shard of a resharded store)")
	addr := fs.String("addr", "127.0.0.1:8081", "listen address")
	fastLoad := fs.Bool("fast-load", false, "skip the synchronous data checksum: zero-copy open (no decode, no copy, one sequential sketch pass), verified in the background (see /v1/healthz)")
	readOnly := fs.Bool("readonly", false, "refuse mutations on both the RPC and the JSON surface")
	fs.Parse(args)

	fmt.Printf("distance kernel: %s\n", mat.Kernel())
	// No concept cache and the exact tier: a coordinator trains on its own
	// cache and every RPC carries its own recall. The JSON surface below is
	// for curl /v1/healthz and /v1/stats.
	db, err := milret.LoadDatabase(*dbPath, milret.Options{VerifyOnLoad: !*fastLoad})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		db.Close()
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	rpc := remote.NewShardServer(db)
	rpc.ReadOnly = *readOnly
	jsonSurface := server.New(db)
	jsonSurface.ReadOnly = *readOnly
	mux := http.NewServeMux()
	mux.Handle(remote.RPCPath, rpc)
	mux.Handle("/", jsonSurface)

	fmt.Printf("shard-serving %d images on http://%s (RPC at %s, JSON at /v1)\n",
		db.Len(), ln.Addr(), remote.RPCPath)
	return serveHandlerUntilSignal(mux, ln, sig, db.Flush, db.Close)
}

// serveTopology runs `milret serve -topology`: one coordinator fronting
// the topology's shard servers behind the ordinary JSON surface.
func serveTopology(topoPath, addr string, readOnly bool, opts remote.CoordinatorOptions) error {
	topo, err := remote.LoadTopology(topoPath)
	if err != nil {
		return err
	}
	coord, err := remote.NewCoordinator(topo, opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		coord.Close()
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	h := server.NewBackend(coord)
	h.ReadOnly = readOnly
	for _, p := range topo.Partitions {
		fmt.Printf("partition %-12s %s\n", p.Name, p.Addr)
	}
	fmt.Printf("coordinating %d partitions (%d images, partial=%s) on http://%s\n",
		len(topo.Partitions), coord.Len(), topo.PartialPolicy(), ln.Addr())
	return serveHandlerUntilSignal(h, ln, sig, coord.Flush, coord.Close)
}

// cmdReshard rewrites a store into a different shard count, routing
// every live image by the placement hash so the result lines up with a
// topology of the same size. The source is opened read-only (verified)
// and left untouched; tombstoned rows are not carried over.
func cmdReshard(args []string) error {
	fs := flag.NewFlagSet("reshard", flag.ExitOnError)
	src := fs.String("src", "", "source store path (flat file or manifest)")
	dst := fs.String("dst", "", "destination store path (must differ from -src)")
	shards := fs.Int("shards", 4, "destination shard count; 1 writes a single flat file")
	fs.Parse(args)

	if *src == "" || *dst == "" {
		return fmt.Errorf("reshard: -src and -dst are required")
	}
	if err := milret.Reshard(*src, *dst, *shards); err != nil {
		return err
	}
	fmt.Printf("resharded %s into %s (%d shards)\n", *src, *dst, *shards)
	return nil
}
