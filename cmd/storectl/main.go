// Command storectl inspects and migrates content-addressed result stores
// (internal/store) across both backends: JSONL files and embedded
// binary-log files. It is the operational companion to docs/STORAGE.md.
//
// Usage:
//
//	storectl cat  <store>                dump as JSONL (valid store-file bytes)
//	storectl ls   <store>                list stored hashes, one per line
//	storectl copy <src> <dst>            copy every record from src to dst
//
// A <store> argument is a file path; the backend is auto-detected
// (override with -backend / -dst-backend). Copy is the migration recipe
// between formats, and the backup of a running daemon's store (a JSONL
// store takes no lock; an embedded one is safe across processes):
//
//	storectl copy results.jsonl results.emb -dst-backend embedded
//	storectl copy alsd-results.jsonl backup.jsonl
//	storectl cat results.emb > results.jsonl   # cat emits JSONL for any backend
//
// Copy is idempotent (last writer wins per hash) and additive: existing
// records in the destination are kept, identical hashes are overwritten.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("storectl", flag.ContinueOnError)
	srcBackend := fs.String("backend", "auto", "source backend: auto, jsonl or embedded")
	dstBackend := fs.String("dst-backend", "auto", "destination backend for copy: auto, jsonl or embedded")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: storectl [flags] cat|ls <store>")
		fmt.Fprintln(os.Stderr, "       storectl [flags] copy <src> <dst>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The flag package stops at the first positional argument; re-parse so
	// flags may follow the subcommand (storectl copy a b -dst-backend ...).
	var rest []string
	for tail := fs.Args(); len(tail) > 0; {
		if strings.HasPrefix(tail[0], "-") {
			if err := fs.Parse(tail); err != nil {
				return 2
			}
			tail = fs.Args()
			continue
		}
		rest = append(rest, tail[0])
		tail = tail[1:]
	}
	if len(rest) < 2 {
		fs.Usage()
		return 2
	}
	cmd := rest[0]

	src, err := store.OpenKind(*srcBackend, rest[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "storectl:", err)
		return 1
	}
	defer src.Close()

	switch cmd {
	case "cat":
		w := bufio.NewWriter(os.Stdout)
		if err := src.Export(w); err != nil {
			fmt.Fprintln(os.Stderr, "storectl:", err)
			return 1
		}
		if err := w.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "storectl:", err)
			return 1
		}
	case "ls":
		for _, h := range src.Hashes() {
			fmt.Println(h)
		}
	case "copy":
		if len(rest) != 3 {
			fs.Usage()
			return 2
		}
		dst, err := store.OpenKind(*dstBackend, rest[2])
		if err != nil {
			fmt.Fprintln(os.Stderr, "storectl:", err)
			return 1
		}
		n := 0
		err = src.Scan(func(hash string, payload json.RawMessage) error {
			if err := dst.PutRaw(hash, payload); err != nil {
				return err
			}
			n++
			return nil
		})
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "storectl:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "storectl: copied %d record(s) from %s (%s) to %s (%s)\n",
			n, src.Path(), src.Kind(), dst.Path(), dst.Kind())
	default:
		fs.Usage()
		return 2
	}
	return 0
}
