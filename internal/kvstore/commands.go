package kvstore

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Command is one row of the server's command table. The server executes
// from the table, and wiretap's key set and replayer read it, so a
// command is written once. Tagged waits (TWAITGET, TWAITPREFIX) and
// REPLICATE are not rows: they take over their connection rather than
// answer in line.
type Command struct {
	Name string
	// Arity counts the name too, as Redis's COMMAND table does: n means
	// exactly n, -n at least n.
	Arity int
	// Step > 0 marks a command whose arguments are independent groups of
	// Step, each led by its key (DEL, EXISTS, MGET, MSET): the argument
	// count must be a multiple of Step.
	Step int
	// Writes marks a command that changes data; a following replica
	// refuses it.
	Writes bool
	// keys returns, for a command with Step 0, its key arguments.
	keys func(args [][]byte) [][]byte
	run  func(s *Server, args [][]byte) value
}

func firstKey(a [][]byte) [][]byte { return a[:1:1] }

// commandTable is every synchronous command the server answers.
var commandTable = []Command{
	{Name: "PING", Arity: -1, run: (*Server).cmdPing},
	{Name: "SET", Arity: 3, Writes: true, keys: firstKey, run: (*Server).cmdSet},
	{Name: "PSETEX", Arity: 4, Writes: true, keys: firstKey, run: (*Server).cmdPSetEx},
	{Name: "PEXPIRE", Arity: 3, Writes: true, keys: firstKey, run: (*Server).cmdPExpire},
	{Name: "GET", Arity: 2, keys: firstKey, run: (*Server).cmdGet},
	{Name: "DEL", Arity: -1, Step: 1, Writes: true, run: (*Server).cmdDel},
	{Name: "EXISTS", Arity: -1, Step: 1, run: (*Server).cmdExists},
	{Name: "MGET", Arity: -1, Step: 1, run: (*Server).cmdMGet},
	{Name: "MSET", Arity: -3, Step: 2, Writes: true, run: (*Server).cmdMSet},
	{Name: "LAPPEND", Arity: -4, Writes: true, keys: firstKey, run: (*Server).cmdLAppend},
	{Name: "LREAD", Arity: -5, keys: lreadKeys, run: (*Server).cmdLRead},
	{Name: "INCR", Arity: 2, Writes: true, keys: firstKey, run: (*Server).cmdIncr},
	{Name: "CAS", Arity: 4, Writes: true, keys: firstKey, run: (*Server).cmdCAS},
	{Name: "DELRANGE", Arity: 4, Writes: true, run: (*Server).cmdDelRange},
	{Name: "KEYS", Arity: 2, run: (*Server).cmdKeys},
	{Name: "DBSIZE", Arity: 1, run: (*Server).cmdDBSize},
	{Name: "INFO", Arity: 1, run: func(s *Server, _ [][]byte) value { return bulkValue([]byte(s.InfoText())) }},
	{Name: "FLUSHALL", Arity: 1, Writes: true, run: (*Server).cmdFlushAll},
	{Name: "PROMOTE", Arity: 1, run: (*Server).cmdPromote},
}

var commandIndex = func() map[string]*Command {
	m := make(map[string]*Command, len(commandTable))
	for i := range commandTable {
		m[commandTable[i].Name] = &commandTable[i]
	}
	return m
}()

// LookupCommand returns the table row of the named (upper-case) command.
// The row is shared: read it, never change it.
func LookupCommand(name string) (*Command, bool) {
	c, ok := commandIndex[name]
	return c, ok
}

// CheckArgs reports whether args fit the command's arity and step, with
// the server's reply text when they do not.
func (c *Command) CheckArgs(args [][]byte) error {
	n := len(args) + 1
	ok := n == c.Arity || (c.Arity < 0 && n >= -c.Arity)
	if ok && (c.Step == 0 || len(args)%c.Step == 0) {
		return nil
	}
	return fmt.Errorf("wrong number of arguments for '%s'", strings.ToLower(c.Name))
}

// Keys returns the arguments that name keys. Key-prefix arguments (the
// slot families of DELRANGE, LAPPEND and LREAD, and KEYS's prefix) are
// not keys; appending to the result never writes into args. Call it only
// on arguments CheckArgs accepts.
func (c *Command) Keys(args [][]byte) (keys [][]byte) {
	if c.Step == 0 {
		if c.keys == nil {
			return nil
		}
		return c.keys(args)
	}
	for i := 0; i < len(args); i += c.Step {
		keys = append(keys, args[i])
	}
	return keys
}

// lreadKeys returns LREAD lenKey start count nprefix prefix... key...'s
// length key and trailing keys.
func lreadKeys(a [][]byte) [][]byte {
	np, err := strconv.Atoi(string(a[3]))
	if err != nil || np < 0 || np > len(a)-4 {
		return a[:1:1]
	}
	return append(a[:1:1], a[4+np:]...)
}

// Every write below appends its AOF record while still holding the data
// mutex: releasing first would let two writes of one key persist in
// reversed order, replaying (or replicating) to the older value. Values
// are kept as they arrive: readValue gives every bulk argument its own
// allocation.

func (s *Server) cmdPing(a [][]byte) value {
	if len(a) == 1 {
		return bulkValue(a[0])
	}
	return simpleString("PONG")
}

func (s *Server) cmdSet(a [][]byte) value {
	key := string(a[0])
	s.mu.Lock()
	s.data[key] = a[1]
	s.persistLocked(key)
	s.appendAOF(aofSet, key, a[1])
	s.mu.Unlock()
	s.notify.published(key)
	return simpleString("OK")
}

func (s *Server) cmdGet(a [][]byte) value {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bulkLocked(string(a[0]))
}

// cmdDel removes each key under its own lock hold, returning how many
// existed.
func (s *Server) cmdDel(a [][]byte) value {
	var n int64
	for _, k := range a {
		key := string(k)
		s.mu.Lock()
		_, ok := s.data[key]
		if ok {
			delete(s.data, key)
			s.persistLocked(key)
			s.appendAOF(aofDel, key, nil)
		}
		s.mu.Unlock()
		if ok {
			n++
			s.notify.published(key)
		}
	}
	return integerValue(n)
}

func (s *Server) cmdExists(a [][]byte) value {
	var n int64
	s.mu.RLock()
	for _, k := range a {
		if _, ok := s.data[string(k)]; ok {
			n++
		}
	}
	s.mu.RUnlock()
	return integerValue(n)
}

func (s *Server) cmdMGet(a [][]byte) value {
	out := make([]value, len(a))
	s.mu.RLock()
	for i, k := range a {
		out[i] = s.bulkLocked(string(k))
	}
	s.mu.RUnlock()
	return arrayValue(out)
}

func (s *Server) cmdMSet(a [][]byte) value {
	s.mu.Lock()
	keys, err := s.setAllLocked(a)
	s.mu.Unlock()
	if err != nil {
		return errorValue("ERR " + err.Error())
	}
	s.notify.published(keys...)
	return simpleString("OK")
}

// cmdLAppend is LAPPEND lenKey prefix val...: the log whose length lives
// at lenKey grows by the number of values, each landing at prefix+i for
// the slot i it takes. Length and slots change in one setAllLocked, so no
// slot is ever taken without its value — the append pstream's KVBroker
// publishes with. The reply is the new length.
func (s *Server) cmdLAppend(a [][]byte) value {
	prefix, vals := string(a[1]), a[2:]
	s.mu.Lock()
	n, err := s.intLocked(string(a[0]))
	var keys []string
	if err == nil {
		pairs := make([][]byte, 0, 2*len(vals)+2)
		for i, v := range vals {
			pairs = append(pairs, []byte(prefix+strconv.FormatInt(n+int64(i), 10)), v)
		}
		n += int64(len(vals))
		keys, err = s.setAllLocked(append(pairs, a[0], []byte(strconv.FormatInt(n, 10))))
	}
	if err == nil && s.logs[prefix] != string(a[0]) {
		if s.logs == nil {
			s.logs = make(map[string]string)
		}
		s.logs[prefix] = string(a[0])
	}
	s.mu.Unlock()
	if err != nil {
		return errorValue("ERR " + err.Error())
	}
	s.notify.published(keys...)
	return integerValue(n)
}

// cmdLRead is LREAD lenKey start count nprefix prefix... key...: under
// one read lock, the log length at lenKey, then each key's value, then per
// prefix an array of the values at prefix+i for i in [start, min(start+
// count, length)) — a log window, the counters that bound it, and the
// records kept beside each slot, as one snapshot.
func (s *Server) cmdLRead(a [][]byte) value {
	start, err1 := strconv.ParseUint(string(a[1]), 10, 64)
	count, err2 := strconv.ParseUint(string(a[2]), 10, 64)
	nprefix, err3 := strconv.Atoi(string(a[3]))
	if err1 != nil || err2 != nil || err3 != nil || nprefix < 0 || nprefix > len(a)-4 {
		return errorValue("ERR value is not an integer or out of range")
	}
	prefixes, keys := a[4:4+nprefix], a[4+nprefix:]
	s.mu.RLock()
	defer s.mu.RUnlock()
	length, err := s.intLocked(string(a[0]))
	if err != nil {
		return errorValue("ERR " + err.Error())
	}
	out := append(make([]value, 0, 1+len(keys)+len(prefixes)), integerValue(length))
	for _, k := range keys {
		out = append(out, s.bulkLocked(string(k)))
	}
	end := max(start, min(start+count, uint64(length)))
	for _, p := range prefixes {
		vals := make([]value, 0, end-start)
		for i := start; i < end; i++ {
			vals = append(vals, s.bulkLocked(string(p)+strconv.FormatUint(i, 10)))
		}
		out = append(out, arrayValue(vals))
	}
	return arrayValue(out)
}

// cmdIncr adds one to the integer at key (a missing key counts as 0)
// under the store lock, so concurrent INCRs of one key never lose
// updates, and returns the new value.
func (s *Server) cmdIncr(a [][]byte) value {
	key := string(a[0])
	s.mu.Lock()
	n, err := s.intLocked(key)
	if err == nil {
		n++
		buf := []byte(strconv.FormatInt(n, 10))
		s.data[key] = buf
		s.persistLocked(key)
		s.appendAOF(aofSet, key, buf)
	}
	s.mu.Unlock()
	if err != nil {
		return errorValue("ERR " + err.Error())
	}
	s.notify.published(key)
	return integerValue(n)
}

// cmdCAS is CAS key old new: it swaps key from old to new and replies 1,
// or replies 0. An empty old means "key must not exist", so CAS doubles
// as SETNX — the primitive pstream's consumer groups build claim leases
// on: claim (absent → claim record), reclaim an expired lease (old record
// → new record), and settle (claim record → acked marker) are all single
// server-side CAS commands that can never hand one event to two members.
func (s *Server) cmdCAS(a [][]byte) value {
	key, old := string(a[0]), a[1]
	s.mu.Lock()
	cur, ok := s.data[key]
	swap := len(old) == 0 && !ok || len(old) > 0 && ok && bytes.Equal(cur, old)
	if swap {
		s.data[key] = a[2]
		s.persistLocked(key)
		s.appendAOF(aofSet, key, a[2])
	}
	s.mu.Unlock()
	if !swap {
		return integerValue(0)
	}
	s.notify.published(key)
	return integerValue(1)
}

// delRangeMax bounds one DELRANGE sweep so a corrupt range argument cannot
// pin the server in a near-endless delete loop.
const delRangeMax = 1 << 20

// cmdDelRange is DELRANGE prefix start end: it deletes the keys prefix+i
// for start <= i < end (decimal i) and replies how many existed — the
// ranged DEL behind pstream's log truncation, which reclaims a fully-acked
// log prefix and its ack counters with one round trip instead of one DEL
// per slot.
func (s *Server) cmdDelRange(a [][]byte) value {
	start, err1 := strconv.ParseUint(string(a[1]), 10, 64)
	end, err2 := strconv.ParseUint(string(a[2]), 10, 64)
	if err1 != nil || err2 != nil {
		return errorValue("ERR value is not an integer or out of range")
	}
	if end < start {
		return integerValue(0)
	}
	if end-start > delRangeMax {
		return errorValue(fmt.Sprintf("ERR range of %d keys exceeds limit %d", end-start, delRangeMax))
	}
	prefix := string(a[0])
	var n int64
	s.mu.Lock()
	for i := start; i < end; i++ {
		key := prefix + strconv.FormatUint(i, 10)
		if _, ok := s.data[key]; ok {
			delete(s.data, key)
			s.persistLocked(key)
			n++
		}
	}
	// One range record for the whole sweep instead of one DEL record per
	// key: the sweep holds the data mutex, and a thousand-key truncation
	// must not pay a thousand file writes under it. Replaying the full
	// range is equivalent — deleting an absent key is a no-op.
	if n > 0 {
		s.appendAOF(aofDelRange, prefix, delRangeVal(start, end))
	}
	s.mu.Unlock()
	if n > 0 {
		s.notify.publishedRange(prefix)
	}
	return integerValue(n)
}

// cmdKeys is KEYS prefix: the keys that start with prefix, sorted. It
// walks the whole keyspace under the read lock.
func (s *Server) cmdKeys(a [][]byte) value {
	prefix := string(a[0])
	var keys []string
	s.mu.RLock()
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	out := make([]value, len(keys))
	for i, k := range keys {
		out[i] = bulkValue([]byte(k))
	}
	return arrayValue(out)
}

func (s *Server) cmdDBSize([][]byte) value {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return integerValue(int64(len(s.data)))
}

func (s *Server) cmdFlushAll([][]byte) value {
	s.mu.Lock()
	s.data = make(map[string][]byte)
	s.logs = nil
	s.expires = nil
	s.appendAOF(aofFlush, "", nil)
	s.mu.Unlock()
	s.notify.publishedAll()
	return simpleString("OK")
}

// cmdPromote stops following the primary (if any) and serves writes. It
// is idempotent, and a harmless no-op on a server that never replicated,
// so a failover client can send it unconditionally.
func (s *Server) cmdPromote([][]byte) value {
	s.promote()
	return simpleString("OK")
}
