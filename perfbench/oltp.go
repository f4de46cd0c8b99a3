package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/index"
	"mb2/internal/plan"
	"mb2/internal/repl"
	"mb2/internal/server"
	"mb2/internal/session"
	"mb2/internal/sql"
	"mb2/internal/storage"
)

// oltp_wire: closed-loop point SQL over the in-process pipe transport.
//
// Each of Clients connections runs its own deterministic statement stream:
// 50% point SELECTs, 25% INSERTs and 25% point UPDATEs, all on keys of the
// client's own stripe (k ≡ client mod Clients), so every statement is
// served by the index on k and no two clients ever write the same row.
// The benchmark keeps a model of every stripe and checks each statement's
// row count and row digest against it. Every FlushEvery statements (summed
// over clients) the client that completed that statement leads a group
// flush — it drains the process list's observation buffers, then calls
// WAL.Serialize, WAL.Flush and repl.Group.Sync to one replica that applies
// every ApplyEvery-th shipment — and its operation latency includes the
// flush, as a group-commit leader's would.
//
// The timed phase is split into Epochs, each on a freshly loaded primary:
// the log, and with it the cost of every ship and apply, grows with the
// epoch, so epochs bound it, and the per-epoch figures' median resists
// bursts of noise.

// oltpConfig sizes one oltp_wire run.
type oltpConfig struct {
	Rows       int // kv rows loaded at set-up
	Clients    int
	FlushEvery int // statements between group flushes
	ApplyEvery int // the replica applies every ApplyEvery-th shipment
	Epochs     int
	Seed       int64
}

func defaultOLTP(seed int64) oltpConfig {
	return oltpConfig{Rows: 100_000, Clients: 2, FlushEvery: 1024, ApplyEvery: 16, Epochs: 5, Seed: seed}
}

var kvSchema = catalog.NewSchema(
	catalog.Column{Name: "k", Type: catalog.Int64},
	catalog.Column{Name: "v", Type: catalog.Int64},
)

// kvFactory builds an empty engine holding the kv schema and its index on
// k: the primary before loading, every replica, and every recovery target.
func kvFactory() (*engine.DB, error) {
	db := engine.Open(catalog.DefaultKnobs())
	if _, err := db.CreateTable("kv", kvSchema); err != nil {
		return nil, err
	}
	if _, _, err := db.CreateIndex(nil, db.Machine.CPU, "kv_k", "kv", []string{"k"}, true, 1); err != nil {
		return nil, err
	}
	return db, nil
}

// splitmix64 advances a small deterministic PRNG.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// baseValue is the v a preloaded key starts with.
func baseValue(seed int64, k int) int64 {
	s := uint64(seed) ^ uint64(k)*0xd1b54a32d192ed03
	return int64(splitmix64(&s) % 1_000_000)
}

// rowDigest hashes one (k, v) row exactly as the server digests a result
// row: FNV-64a over the row's canonical key encoding.
func rowDigest(k, v int64) uint64 {
	var buf [32]byte
	key := index.AppendKeyFromTuple(buf[:0], storage.Tuple{storage.NewInt(k), storage.NewInt(v)}, []int{0, 1})
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

// batchDigest folds a result batch order-insensitively, matching the
// digest the server returns over the wire.
func batchDigest(b *exec.Batch) uint64 {
	var acc uint64
	if b == nil || len(b.Rows) == 0 {
		return 0
	}
	cols := make([]int, len(b.Rows[0]))
	for i := range cols {
		cols[i] = i
	}
	var buf []byte
	for _, row := range b.Rows {
		buf = index.AppendKeyFromTuple(buf[:0], row, cols)
		h := fnv.New64a()
		h.Write(buf)
		acc ^= h.Sum64()
	}
	return acc
}

// Statement kinds.
const (
	kindSelect = iota
	kindInsert
	kindUpdate
)

// kvStmt is one generated statement with the result the model expects.
type kvStmt struct {
	kind       int
	sql        string
	wantRows   uint64
	wantDigest uint64
}

// kvStripe generates one client's statement stream and models the rows it
// owns. Slot i maps to key keyOf(i); values live in vals.
type kvStripe struct {
	client, clients, rows int
	state                 uint64
	nBase                 int
	vals                  []int64
	writes                int // DML statements generated
}

func newStripe(cfg oltpConfig, client int) *kvStripe {
	s := &kvStripe{client: client, clients: cfg.Clients, rows: cfg.Rows}
	s.state = uint64(cfg.Seed)*0x9e3779b97f4a7c15 ^ uint64(client+1)*0xbf58476d1ce4e5b9
	for k := client; k < cfg.Rows; k += cfg.Clients {
		s.vals = append(s.vals, baseValue(cfg.Seed, k))
	}
	s.nBase = len(s.vals)
	return s
}

// keyOf maps an owned slot to its key: base slots are the stripe below
// rows, inserted slots continue the stripe above it.
func (s *kvStripe) keyOf(i int) int64 {
	if i < s.nBase {
		return int64(s.client + i*s.clients)
	}
	return int64(s.rows + (i-s.nBase)*s.clients + s.client)
}

// next generates the next statement and applies its effect to the model.
func (s *kvStripe) next() kvStmt {
	r := splitmix64(&s.state)
	v := int64((r >> 24) % 1_000_000)
	switch r % 4 {
	case 0, 1:
		i := int((r >> 8) % uint64(len(s.vals)))
		k := s.keyOf(i)
		return kvStmt{kind: kindSelect, sql: "SELECT * FROM kv WHERE k = " + strconv.FormatInt(k, 10),
			wantRows: 1, wantDigest: rowDigest(k, s.vals[i])}
	case 2:
		s.writes++
		k := s.keyOf(len(s.vals))
		s.vals = append(s.vals, v)
		return kvStmt{kind: kindInsert,
			sql: "INSERT INTO kv VALUES (" + strconv.FormatInt(k, 10) + ", " + strconv.FormatInt(v, 10) + ")"}
	default:
		s.writes++
		i := int((r >> 8) % uint64(len(s.vals)))
		s.vals[i] = v
		return kvStmt{kind: kindUpdate,
			sql: "UPDATE kv SET v = " + strconv.FormatInt(v, 10) + " WHERE k = " + strconv.FormatInt(s.keyOf(i), 10)}
	}
}

// digest folds the stripe's modelled rows like kvDigest does.
func (s *kvStripe) digest() (rows int, d uint64) {
	for i, v := range s.vals {
		d ^= rowDigest(s.keyOf(i), v)
	}
	return len(s.vals), d
}

// checkStmt is the row-count oracle: the statement's result must match
// what the model expects.
func checkStmt(st kvStmt, rows, digest uint64) error {
	if rows != st.wantRows {
		return fmt.Errorf("oracle: %q returned %d rows, model expects %d", st.sql, rows, st.wantRows)
	}
	if digest != st.wantDigest {
		return fmt.Errorf("oracle: %q returned row digest %#x, model expects %#x", st.sql, digest, st.wantDigest)
	}
	return nil
}

// kvDigest folds the committed kv rows order-insensitively.
func kvDigest(db *engine.DB) (rows int, d uint64) {
	db.Table("kv").Scan(nil, 0, db.Txns.LastCommitTS(), func(_ storage.RowID, t storage.Tuple) bool {
		rows++
		d ^= rowDigest(t[0].I, t[1].I)
		return true
	})
	return rows, d
}

// kvEnv is one loaded primary with its replica group and wire server.
type kvEnv struct {
	cfg   oltpConfig
	db    *engine.DB
	grp   *repl.Group
	srv   *server.Server
	tr    *countingTransport
	serve chan error
	flush *flusher
}

// setupKV loads the primary, checkpoints it so the loaded rows are in the
// checkpoint image a replica re-seeds from, ships that image to one
// replica, and starts a server on a byte-counting pipe transport.
func setupKV(cfg oltpConfig) (*kvEnv, error) {
	db, err := kvFactory()
	if err != nil {
		return nil, err
	}
	rows := make([]storage.Tuple, cfg.Rows)
	for k := range rows {
		rows[k] = storage.Tuple{storage.NewInt(int64(k)), storage.NewInt(baseValue(cfg.Seed, k))}
	}
	if err := db.BulkLoad("kv", rows); err != nil {
		return nil, err
	}
	// Fill the planner's statistics cache now; the first plan would
	// otherwise scan the table inside the timed phase.
	db.DistinctCount("kv", []int{0})
	if _, err := db.Checkpoint(nil); err != nil {
		return nil, err
	}
	grp, err := repl.NewGroup(db, kvFactory, server.NewPipe(),
		repl.GroupConfig{Replicas: 1, ApplyEvery: []int{cfg.ApplyEvery}})
	if err != nil {
		return nil, err
	}
	if err := grp.Sync(); err != nil {
		grp.Close()
		return nil, err
	}
	env := &kvEnv{cfg: cfg, db: db, grp: grp,
		srv:   server.New(db, server.Config{Contenders: float64(cfg.Clients)}),
		tr:    &countingTransport{Transport: server.NewPipe()},
		serve: make(chan error, 1),
	}
	env.flush = &flusher{db: db, grp: grp, reg: env.srv.Registry(), every: int64(cfg.FlushEvery)}
	ln, err := env.tr.Listen()
	if err != nil {
		grp.Close()
		return nil, err
	}
	go func() { env.serve <- env.srv.Serve(ln) }()
	return env, nil
}

// close stops the server and the replica group, waiting for both.
func (e *kvEnv) close() error {
	e.srv.Close()
	err := <-e.serve
	// Serve reports a transport closed before it registered the listener
	// as an error; for a shutdown that is the expected outcome.
	if errors.Is(err, server.ErrTransportClosed) {
		err = nil
	}
	if gerr := e.grp.Close(); err == nil {
		err = gerr
	}
	return err
}

// flusher is the benchmark acting as the log manager and the observation
// drainer: every `every` statements it empties the process list's
// observation buffers (a live control loop drains them each interval;
// undrained, they hold every distinct statement text and its plan), then
// serializes, flushes and ships the log.
type flusher struct {
	mu    sync.Mutex
	db    *engine.DB
	grp   *repl.Group
	reg   *session.Registry
	every int64
	stmts atomic.Int64
	// pendingMax is the most commits the replica has acknowledged
	// receiving but not yet applied, over every ship (guarded by mu).
	pendingMax uint64
}

// tick counts one completed statement and, when it completes a flush
// period, leads the group flush.
func (f *flusher) tick(tr *Tracer, parent int32, req int64) error {
	if f.stmts.Add(1)%f.every != 0 {
		return nil
	}
	return f.group(tr, parent, req)
}

// group drains observations, then serializes, flushes and ships the log.
func (f *flusher) group(tr *Tracer, parent int32, req int64) error {
	s := tr.Begin("wal.wait", parent, req)
	f.mu.Lock()
	tr.End(s)
	defer f.mu.Unlock()
	s = tr.Begin("session.drain", parent, req)
	f.reg.DrainObservations()
	tr.End(s)
	// Every commit at or below this timestamp has its commit record
	// queued, so the flush below makes it durable and the ship delivers it.
	durable := f.db.Txns.LastCommitTS()
	s = tr.Begin("wal.serialize", parent, req)
	f.db.WAL.Serialize(nil)
	tr.End(s)
	s = tr.Begin("wal.flush", parent, req)
	_, err := f.db.WAL.Flush(nil)
	tr.End(s)
	if err != nil {
		return err
	}
	s = tr.Begin("repl.sync", parent, req)
	err = f.grp.Sync()
	tr.End(s)
	if applied := f.grp.AckedCommits()[0]; durable > applied && durable-applied > f.pendingMax {
		f.pendingMax = durable - applied
	}
	return err
}

// stmtRunner executes one statement and returns its row count and digest.
type stmtRunner func(st kvStmt, tr *Tracer, parent int32, req int64) (rows, digest uint64, err error)

// wireRunner runs statements over a client connection.
func wireRunner(cl *server.Client) stmtRunner {
	return func(st kvStmt, tr *Tracer, parent int32, req int64) (uint64, uint64, error) {
		s := tr.Begin("server.query", parent, req)
		res, err := cl.Query(st.sql)
		tr.End(s)
		return res.Count, res.Digest, err
	}
}

// sessionRunner runs statements in-process through a session, calling the
// same layers the server's ExecSQL calls, one span per layer. DML runs in
// an auto-commit transaction, as over the wire. The simulated cost of
// each execution is added to simUS.
func sessionRunner(sess *session.Session, simUS *float64) stmtRunner {
	ec := sess.ExecCtx()
	return func(st kvStmt, tr *Tracer, parent int32, req int64) (uint64, uint64, error) {
		stmt := tr.Begin("session.stmt", parent, req)
		b, err := sessionStmt(sess, ec, st, tr, stmt, req, simUS)
		tr.End(stmt)
		if err != nil || b == nil {
			return 0, 0, err
		}
		// The server digests result rows while encoding its reply; here
		// that happens outside the session span.
		return uint64(len(b.Rows)), batchDigest(b), nil
	}
}

// sessionStmt runs one statement through the session's layers.
func sessionStmt(sess *session.Session, ec *exec.Ctx, st kvStmt, tr *Tracer, stmt int32, req int64, simUS *float64) (*exec.Batch, error) {
	s := tr.Begin("sql.parse", stmt, req)
	ast, err := sql.Parse(st.sql)
	tr.End(s)
	if err != nil {
		return nil, err
	}
	s = tr.Begin("sql.plan", stmt, req)
	node, err := sql.NewPlanner(ec.DB).Plan(ast)
	tr.End(s)
	if err != nil {
		return nil, err
	}
	fp := plan.Fingerprint(node)
	dml := st.kind != kindSelect
	if dml {
		ec.Begin()
	}
	s = tr.Begin("exec.plan", stmt, req)
	b, iso, err := sess.ExecPlan(st.sql, fp, node)
	tr.End(s)
	*simUS += iso.ElapsedUS
	if !dml || err != nil {
		if dml {
			err = errors.Join(err, ec.Abort())
		}
		return b, err
	}
	s = tr.Begin("txn.commit", stmt, req)
	err = ec.Commit()
	tr.End(s)
	return b, err
}

// clientResult is one client's share of a pass.
type clientResult struct {
	lat    []float64 // per-operation latency, µs
	failed int64
	check  error
}

// passLimit bounds a pass: by deadline, or by an exact per-client count.
type passLimit struct {
	deadline time.Time
	count    []int // per client; nil means run until the deadline
}

func (l passLimit) done(client, n int) bool {
	if l.count != nil {
		return n >= l.count[client]
	}
	return !time.Now().Before(l.deadline)
}

// runPass drives every stripe through its runner concurrently, one
// goroutine per client, each statement closed-loop. A statement error
// counts as failed and stops that client (its model no longer matches);
// an oracle mismatch is kept as the client's check error.
func runPass(env *kvEnv, runners []stmtRunner, stripes []*kvStripe, lim passLimit, tracers []*Tracer) ([]clientResult, time.Duration) {
	res := make([]clientResult, len(runners))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := range runners {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &res[c]
			tr := tracers[c]
			<-start
			for n := 0; !lim.done(c, n); n++ {
				st := stripes[c].next()
				req := int64(c)<<40 | int64(n)
				t0 := time.Now()
				op := tr.Begin("op", -1, req)
				rows, digest, err := runners[c](st, tr, op, req)
				if err == nil {
					err = env.flush.tick(tr, op, req)
				}
				tr.End(op)
				r.lat = append(r.lat, float64(time.Since(t0).Nanoseconds())/1e3)
				if err != nil {
					r.failed++
					if r.check == nil {
						r.check = fmt.Errorf("client %d statement %d (%q): %w", c, n, st.sql, err)
					}
					return
				}
				if cerr := checkStmt(st, rows, digest); cerr != nil && r.check == nil {
					r.check = fmt.Errorf("client %d statement %d: %w", c, n, cerr)
				}
			}
		}(c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return res, time.Since(t0)
}

// dialClients opens one wire client per stripe.
func dialClients(env *kvEnv) ([]*server.Client, []stmtRunner, error) {
	var cls []*server.Client
	var runners []stmtRunner
	for c := 0; c < env.cfg.Clients; c++ {
		cl, err := server.Dial(env.tr)
		if err != nil {
			for _, o := range cls {
				o.Close()
			}
			return nil, nil, err
		}
		cls = append(cls, cl)
		runners = append(runners, wireRunner(cl))
	}
	return cls, runners, nil
}

// verifyKV runs the end-of-run checks: a final group flush, the primary
// against the model, a fresh engine recovered from the durable images
// against the primary, and the promoted replica against the primary.
// It closes env.
func verifyKV(env *kvEnv, stripes []*kvStripe) error {
	ferr := env.flush.group(nil, -1, 0)
	cerr := env.close()
	if ferr != nil {
		return fmt.Errorf("final flush: %w", ferr)
	}
	if cerr != nil {
		return fmt.Errorf("closing server and replica group: %w", cerr)
	}
	rows, d := kvDigest(env.db)
	wantRows, want := 0, uint64(0)
	for _, s := range stripes {
		n, sd := s.digest()
		wantRows += n
		want ^= sd
	}
	if rows != wantRows || d != want {
		return fmt.Errorf("primary kv holds %d rows digest %#x, model expects %d rows digest %#x", rows, d, wantRows, want)
	}
	settle()
	if err := checkRecovery(env.db, env.db.CheckpointImage(), env.db.WAL.Durable()); err != nil {
		return err
	}
	rep := env.grp.Replicas()[0]
	if _, err := rep.Promote(); err != nil {
		return fmt.Errorf("promoting replica: %w", err)
	}
	if pr, pd := kvDigest(rep.DB()); pr != rows || pd != d {
		return fmt.Errorf("promoted replica holds %d rows digest %#x, primary %d rows digest %#x", pr, pd, rows, d)
	}
	return nil
}

// checkRecovery recovers a fresh engine from the durable checkpoint and
// log images and requires its kv to equal the primary's.
func checkRecovery(primary *engine.DB, ckpt, log []byte) error {
	rec, err := kvFactory()
	if err != nil {
		return err
	}
	if _, err := rec.RecoverImages(nil, ckpt, log); err != nil {
		return fmt.Errorf("recovering from durable images: %w", err)
	}
	rows, d := kvDigest(primary)
	if rr, rd := kvDigest(rec); rr != rows || rd != d {
		return fmt.Errorf("recovered kv holds %d rows digest %#x, primary %d rows digest %#x", rr, rd, rows, d)
	}
	return nil
}

// passResult is one pass over the wire or in-process.
type passResult struct {
	clients []clientResult
	stripes []*kvStripe
	wall    time.Duration
}

// wirePass dials one client per stripe and runs a pass over the wire.
func wirePass(env *kvEnv, lim passLimit, tracers []*Tracer) (passResult, error) {
	cls, runners, err := dialClients(env)
	if err != nil {
		return passResult{}, err
	}
	p := passResult{stripes: newStripes(env.cfg)}
	if tracers == nil {
		tracers = make([]*Tracer, len(runners))
	}
	p.clients, p.wall = runPass(env, runners, p.stripes, lim, tracers)
	for _, cl := range cls {
		cl.Close()
	}
	return p, nil
}

func newStripes(cfg oltpConfig) []*kvStripe {
	out := make([]*kvStripe, cfg.Clients)
	for c := range out {
		out[c] = newStripe(cfg, c)
	}
	return out
}

// runOLTP is the oltp_wire workload.
func runOLTP(o runOpts) (Outcome, error) {
	cfg := defaultOLTP(o.Seed)
	if o.Small {
		cfg.Rows, cfg.FlushEvery, cfg.ApplyEvery = 2_000, 32, 2
	}
	epoch := time.Duration(o.Seconds) * time.Second / time.Duration(cfg.Epochs)
	if o.Trace {
		return traceOLTP(cfg, o, epoch)
	}
	var out Outcome
	var setups []float64
	var wins []window
	for e := 0; e < cfg.Epochs && out.Check == nil; e++ {
		settle()
		t0 := time.Now()
		env, err := setupKV(cfg)
		if err != nil {
			return Outcome{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		settle()
		p, err := wirePass(env, passLimit{deadline: time.Now().Add(epoch)}, nil)
		if err != nil {
			return Outcome{}, err
		}
		out.Attempted += int64(p.ops())
		out.Failed += p.failed()
		out.Check = p.verify(env)
		wins = append(wins, p.window())
	}
	out.Metrics = windowMetrics(wins)
	out.Metrics["setup_s"] = median(setups)
	out.Windows = wins
	return out, nil
}

// gapTolerancePct bounds trace.sum_gap_pct: the share of an operation's
// traced latency that no layer span covers.
const gapTolerancePct = 10

// traceOLTP is the traced oltp_wire run. Pass A runs untraced for one
// epoch; pass B replays the same statements over the wire
// with a span around each Client.Query; pass C replays them in-process
// with a span around each layer call. Each pass gets a freshly loaded
// primary. Wire self time is B's round trip minus C's session time.
func traceOLTP(cfg oltpConfig, o runOpts, epoch time.Duration) (Outcome, error) {
	m := map[string]float64{}

	// Pass A: untraced, time-bounded.
	envA, err := setupKV(cfg)
	if err != nil {
		return Outcome{}, err
	}
	settle()
	m0 := readMem()
	a, err := wirePass(envA, passLimit{deadline: time.Now().Add(epoch)}, nil)
	if err != nil {
		return Outcome{}, err
	}
	runtimeMetrics(m, m0, readMem(), int64(a.ops()))
	if err := a.verify(envA); err != nil {
		return Outcome{Attempted: int64(a.ops()), Failed: a.failed(), Metrics: m, Check: err}, nil
	}
	counts := a.counts()

	// Pass B: the same statements over the wire, traced.
	envB, err := setupKV(cfg)
	if err != nil {
		return Outcome{}, err
	}
	origin := time.Now()
	trB := newTracers(origin, cfg.Clients)
	_, _, flushed0, _, flushes0 := envB.db.WAL.Stats()
	recv0 := envB.grp.Status()[0].ReceivedBytes
	settle()
	b, err := wirePass(envB, passLimit{count: counts}, trB)
	if err != nil {
		return Outcome{}, err
	}
	_, _, flushed1, _, flushes1 := envB.db.WAL.Stats()
	recv1 := envB.grp.Status()[0].ReceivedBytes
	pendingMax := envB.flush.pendingMax
	bytes := envB.tr.Bytes()
	if err := b.verify(envB); err != nil {
		return Outcome{Attempted: int64(b.ops()), Failed: b.failed(), Metrics: m, Check: err}, nil
	}

	// Pass C: the same statements in-process through sessions, traced.
	envC, err := setupKV(cfg)
	if err != nil {
		return Outcome{}, err
	}
	reg := session.NewRegistry(envC.db, 0)
	envC.flush.reg = reg
	var runners []stmtRunner
	sims := make([]float64, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		sess, err := reg.Open(session.Options{Contenders: float64(cfg.Clients)})
		if err != nil {
			return Outcome{}, err
		}
		defer sess.Close()
		runners = append(runners, sessionRunner(sess, &sims[c]))
	}
	trC := newTracers(origin, cfg.Clients)
	cp := passResult{stripes: newStripes(cfg)}
	settle()
	cp.clients, cp.wall = runPass(envC, runners, cp.stripes, passLimit{count: counts}, trC)
	if err := cp.verify(envC); err != nil {
		return Outcome{Attempted: int64(cp.ops()), Failed: cp.failed(), Metrics: m, Check: err}, nil
	}

	path, err := WriteTraces(o.TraceDir, fmt.Sprintf("oltp_wire-seed%d", o.Seed), o.Prov, append(trB, trC...)...)
	if err != nil {
		return Outcome{}, err
	}

	stmts := float64(b.ops())
	commits := float64(b.writes())
	lb, lc := Aggregate(trB...), Aggregate(trC...)
	rtt := lb["server.query"].MeanUS()
	stmt := lc["session.stmt"]
	m["server.self_us"] = rtt - stmt.MeanUS()
	m["server.bytes_per_stmt"] = float64(bytes) / stmts
	m["server.rtt_p99_us"] = percentile(spanUS(trB, "server.query"), 0.99)
	m["session.self_us"] = float64(stmt.SelfNS) / float64(stmt.Count) / 1e3
	m["sql.parse_us"] = lc["sql.parse"].MeanUS()
	m["sql.plan_us"] = lc["sql.plan"].MeanUS()
	m["exec.self_us"] = lc["exec.plan"].MeanUS()
	m["exec.sim_us_per_stmt"] = sum(sims) / stmts
	m["txn.commit_us"] = lc["txn.commit"].MeanUS()
	m["wal.wait_us"] = lb["wal.wait"].MeanUS()
	m["wal.serialize_us"] = lb["wal.serialize"].MeanUS()
	m["wal.flush_us"] = lb["wal.flush"].MeanUS()
	m["wal.bytes_per_commit"] = float64(flushed1-flushed0) / commits
	m["wal.flushes"] = float64(flushes1 - flushes0)
	m["session.drain_us"] = lb["session.drain"].MeanUS()
	m["repl.sync_us"] = lb["repl.sync"].MeanUS()
	m["repl.shipped_bytes_per_stmt"] = float64(recv1-recv0) / stmts
	m["repl.pending_commits_max"] = float64(pendingMax)

	// Every layer's share of an average operation, against the measured
	// operation latency of pass B.
	perOp := func(l LayerTime) float64 { return float64(l.TotalNS) / stmts / 1e3 }
	layers := m["server.self_us"] + m["session.self_us"] + m["sql.parse_us"] + m["sql.plan_us"] +
		m["exec.self_us"] + perOp(lc["txn.commit"]) +
		perOp(lb["wal.wait"]) + perOp(lb["session.drain"]) + perOp(lb["wal.serialize"]) + perOp(lb["wal.flush"]) + perOp(lb["repl.sync"])
	op := lb["op"].MeanUS()
	m["trace.sum_gap_pct"] = 100 * (op - layers) / op
	m["trace.overhead_pct"] = 100 * (a.opsPerS() - b.opsPerS()) / a.opsPerS()
	var check error
	if g := m["trace.sum_gap_pct"]; g > gapTolerancePct || g < -gapTolerancePct {
		check = fmt.Errorf("layer self times sum to %.2f us, %.1f%% away from the %.2f us operation latency (tolerance %d%%)",
			layers, g, op, gapTolerancePct)
	}
	return Outcome{Attempted: int64(b.ops()), Failed: b.failed(), Metrics: m, Check: check, Spans: path}, nil
}

func newTracers(origin time.Time, n int) []*Tracer {
	out := make([]*Tracer, n)
	for i := range out {
		out[i] = NewTracer(origin)
	}
	return out
}

// spanUS lists the durations of every span of one name, in µs.
func spanUS(tracers []*Tracer, name string) []float64 {
	var out []float64
	for _, t := range tracers {
		for _, s := range t.Spans {
			if s.Name == name {
				out = append(out, float64(s.End-s.Start)/1e3)
			}
		}
	}
	return out
}

func (p passResult) ops() int {
	n := 0
	for _, c := range p.clients {
		n += len(c.lat)
	}
	return n
}

func (p passResult) failed() int64 {
	var n int64
	for _, c := range p.clients {
		n += c.failed
	}
	return n
}

func (p passResult) counts() []int {
	out := make([]int, len(p.clients))
	for i, c := range p.clients {
		out[i] = len(c.lat)
	}
	return out
}

func (p passResult) writes() int {
	n := 0
	for _, s := range p.stripes {
		n += s.writes
	}
	return n
}

func (p passResult) opsPerS() float64 { return float64(p.ops()) / p.wall.Seconds() }

// window is the pass as one window of the timed phase.
func (p passResult) window() window {
	w := window{ops: int64(p.ops()), wall: p.wall}
	for _, c := range p.clients {
		w.lat = append(w.lat, c.lat...)
	}
	return w
}

// verify checks a pass: every client's oracle, then the end-of-run
// durability and replica checks. It closes env.
func (p passResult) verify(env *kvEnv) error {
	for _, c := range p.clients {
		if c.check != nil {
			env.close()
			return c.check
		}
	}
	return verifyKV(env, p.stripes)
}
