package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	als "repro"
)

// The cluster-mixed workload: alscoord plus two registered alsd workers,
// driven open-loop through /v2/batches and /v2/subscriptions with a
// seeded mix of store hits and fresh cells.

const (
	clusterRate   = 22.0 // requests per second: about half the trio's capacity (~44/s pinned, on 2 vCPUs)
	hitSetSize    = 48   // cells stored in the coordinator's store before it boots
	warmRequests  = 24   // identical warm-up requests after every boot
	rerunSample   = 16   // fresh cells re-run in-process to check their envelopes
	requestWait   = 30 * time.Second
	maxSpecsPerRq = 4
)

// freshCircuits are small circuits whose quick DCGWO flow takes ~10–25 ms.
var freshCircuits = []string{"c880", "c1908", "c3540", "Int2float", "Adder16", "Max16"}

// spec is the /v2/batches job spec: the wire form of a cell.
type spec struct {
	Circuit string  `json:"circuit"`
	Method  string  `json:"method"`
	Metric  string  `json:"metric"`
	Budget  float64 `json:"budget"`
	Scale   string  `json:"scale"`
	Seed    int64   `json:"seed"`
}

// jobResult mirrors the stored result record field for field, so a
// marshaled jobResult is byte-identical to what the daemons write.
type jobResult struct {
	RatioCPD    float64 `json:"ratio_cpd"`
	Err         float64 `json:"err"`
	Evaluations int     `json:"evaluations"`
	CPDOri      float64 `json:"cpd_ori"`
	CPDFac      float64 `json:"cpd_fac"`
	AreaCon     float64 `json:"area_con"`
	AreaFinal   float64 `json:"area_final"`
	RuntimeNS   int64   `json:"runtime_ns"`
}

// sameFlow compares everything but the wall-clock runtime.
func (a jobResult) sameFlow(b jobResult) bool {
	a.RuntimeNS, b.RuntimeNS = 0, 0
	return a == b
}

// contentHash is the store key of a spec: hex SHA-256 over its sorted-key
// JSON encoding (docs/STORAGE.md).
func contentHash(s spec) string {
	raw, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		panic(err)
	}
	canon, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

func freshSpec(circuit string, seed int64) spec {
	s := spec{Circuit: circuit, Method: "Ours", Metric: "ER", Budget: 0.05, Scale: "quick", Seed: seed}
	if tableCell(circuit, als.MethodDCGWO).Metric == als.MetricNMED {
		s.Metric, s.Budget = "NMED", 0.0244
	}
	return s
}

// request is one scheduled client request.
type request struct {
	hit    bool
	specs  []spec
	hashes []string
	at     time.Duration // offset of the scheduled send from the schedule start
}

// clusterInputs is everything a run sends, drawn from --seed.
type clusterInputs struct {
	hits  []spec
	warm  []request
	sched []request
}

// drawCluster draws a run's inputs. Every seed sends the same cells: the
// hit set, and fresh cells whose circuit and flow seed follow from their
// position in the schedule (seed bases keep warm-up and timed cells
// apart). The seed decides how requests group and order them: requests
// come in blocks of eight, one hit and one fresh request of each size 1–4,
// in seeded order, and each hit request draws its cells from the hit set.
// So every seed loads the cluster alike, and ratio_cpd_geomean is the
// same at every seed.
func drawCluster(seed int64, seconds int) clusterInputs {
	rng := rand.New(rand.NewSource(seed))
	var in clusterInputs
	for i := 0; i < hitSetSize; i++ {
		in.hits = append(in.hits, freshSpec(freshCircuits[i%len(freshCircuits)], 3_000_000+int64(i)))
	}
	draw := func(n int, seedBase int64) []request {
		reqs := make([]request, 0, n)
		fresh := 0
		for len(reqs) < n {
			for _, b := range rng.Perm(2 * maxSpecsPerRq) {
				if len(reqs) == n {
					break
				}
				r := request{hit: b%2 == 0, at: time.Duration(float64(len(reqs)) / clusterRate * float64(time.Second))}
				k := 1 + b/2
				if r.hit {
					for _, j := range rng.Perm(len(in.hits))[:k] {
						r.specs = append(r.specs, in.hits[j])
					}
				} else {
					for j := 0; j < k; j++ {
						r.specs = append(r.specs, freshSpec(freshCircuits[fresh%len(freshCircuits)], seedBase+int64(fresh)))
						fresh++
					}
				}
				for _, s := range r.specs {
					r.hashes = append(r.hashes, contentHash(s))
				}
				reqs = append(reqs, r)
			}
		}
		return reqs
	}
	in.warm = draw(warmRequests, 1_000_000)
	// Whole blocks only, so every seed sends the same cells.
	blocks := (int(float64(seconds)*clusterRate+0.5) + 2*maxSpecsPerRq - 1) / (2 * maxSpecsPerRq)
	in.sched = draw(blocks*2*maxSpecsPerRq, 2_000_000)
	return in
}

// runSpec computes a cell in-process through the public API, exactly as
// a worker would.
func runSpec(ctx context.Context, s spec) (jobResult, error) {
	c, err := als.BenchmarkByName(s.Circuit)
	if err != nil {
		return jobResult{}, err
	}
	metric, err := als.ParseMetric(s.Metric)
	if err != nil {
		return jobResult{}, err
	}
	fr, err := als.FlowContext(ctx, c, als.NewLibrary(), als.FlowConfig{
		Metric: metric, ErrorBudget: s.Budget, Method: als.MethodDCGWO, Scale: als.ScaleQuick, Seed: s.Seed,
	})
	if err != nil {
		return jobResult{}, err
	}
	return jobResult{
		RatioCPD: fr.RatioCPD, Err: fr.Err, Evaluations: fr.Evaluations,
		CPDOri: fr.CPDOri, CPDFac: fr.CPDFac, AreaCon: fr.AreaCon, AreaFinal: fr.AreaFinal,
		RuntimeNS: int64(fr.Runtime),
	}, nil
}

// writeEmbedded writes an embedded store file (docs/STORAGE.md): the
// magic header, then one CRC-framed record per key.
func writeEmbedded(path string, keys []string, vals [][]byte) error {
	buf := []byte("ALSEMBED1\n")
	for i, k := range keys {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(k)))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(vals[i])))
		buf = append(buf, hdr[:]...)
		buf = append(buf, k...)
		buf = append(buf, vals[i]...)
		crc := crc32.ChecksumIEEE(append([]byte(k), vals[i]...))
		buf = binary.LittleEndian.AppendUint32(buf, crc)
	}
	return os.WriteFile(path, buf, 0o644)
}

// ---- daemons -------------------------------------------------------------

// pinned reports whether daemons get pinned: the coordinator to CPU 0 and
// both workers to CPU 1, so flow compute never preempts the serving path
// (as when the coordinator has a host of its own). Unpinned, hit latency
// swung between 2.3 and 4.7 ms across identical runs on a 2-vCPU host.
// Pinning needs taskset and at least two CPUs.
func pinned() bool {
	_, err := exec.LookPath("taskset")
	return err == nil && runtime.NumCPU() >= 2
}

type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string
	done chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts one daemon on a loopback port, pinned to cpu through
// taskset unless cpu is empty.
func startDaemon(name, bin, logPath, cpu string, port int, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	if cpu != "" {
		cmd = exec.Command("taskset", append([]string{"-c", cpu, bin, "-addr", addr}, args...)...)
	}
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemons die with the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{name: name, cmd: cmd, url: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait(); logf.Close() }()
	return d, nil
}

// stop asks the daemon to drain and waits for it, killing it if it hangs.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may already be gone
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-d.done
	}
}

// trio is one coordinator with its two workers, on fresh files.
type trio struct {
	dir           string
	coord, w1, w2 *daemon
	coordWAL      string
	stores        []string
	client        *http.Client
	traced        bool
}

func (t *trio) daemons() []*daemon { return []*daemon{t.coord, t.w1, t.w2} }

func (t *trio) stop() {
	var wg sync.WaitGroup
	for _, w := range []*daemon{t.w1, t.w2} {
		if w != nil {
			wg.Add(1)
			go func(w *daemon) { defer wg.Done(); w.stop() }(w)
		}
	}
	wg.Wait()
	if t.coord != nil {
		t.coord.stop()
	}
}

// bootTrio writes the hit set into a fresh coordinator store, then starts
// the coordinator and two workers that share one embedded store file but
// keep their own write-ahead logs, and waits until both registered.
func bootTrio(bins, dir string, hitKeys []string, hitVals [][]byte, traced bool, client *http.Client) (*trio, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &trio{dir: dir, client: client, traced: traced}
	coordStore := filepath.Join(dir, "coord.emb")
	workerStore := filepath.Join(dir, "workers.emb")
	t.coordWAL = coordStore + ".coord.wal"
	t.stores = []string{coordStore, workerStore}
	if err := writeEmbedded(coordStore, hitKeys, hitVals); err != nil {
		return nil, err
	}
	if err := writeEmbedded(workerStore, nil, nil); err != nil {
		return nil, err
	}
	var tracing []string
	if !traced {
		tracing = []string{"-trace-buf", "0"}
	}
	ports := make([]int, 3)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	var err error
	coordCPU, workerCPU := "", ""
	if pinned() {
		coordCPU, workerCPU = "0", "1"
	}
	t.coord, err = startDaemon("alscoord", filepath.Join(bins, "alscoord"), filepath.Join(dir, "alscoord.log"), coordCPU, ports[0],
		append([]string{"-store", coordStore}, tracing...)...)
	if err != nil {
		return nil, err
	}
	if err := t.waitWorkers(-1); err != nil {
		t.stop()
		return nil, err
	}
	for i, w := range []**daemon{&t.w1, &t.w2} {
		name := fmt.Sprintf("alsd%d", i+1)
		*w, err = startDaemon(name, filepath.Join(bins, "alsd"), filepath.Join(dir, name+".log"), workerCPU, ports[i+1],
			append([]string{"-store", workerStore, "-wal", filepath.Join(dir, name+".wal"),
				"-workers", "1", "-eval-workers", "1", "-register", t.coord.url}, tracing...)...)
		if err != nil {
			t.stop()
			return nil, err
		}
	}
	if err := t.waitWorkers(2); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// waitWorkers polls the coordinator's /healthz until it answers (want <
// 0) or reports want registered workers.
func (t *trio) waitWorkers(want int) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var h struct {
			Workers int `json:"workers"`
		}
		if err := t.getJSON(t.coord.url+"/healthz", &h); err == nil && (want < 0 || h.Workers == want) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("cluster did not come up with %d workers (logs in %s)", want, t.dir)
}

func (t *trio) getJSON(url string, into any) error {
	raw, err := t.get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, into)
}

func (t *trio) get(url string) ([]byte, error) {
	resp, err := t.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
