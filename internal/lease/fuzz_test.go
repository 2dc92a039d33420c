package lease

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// FuzzLeaseRead feeds arbitrary bytes to the two reads a manager makes of
// lease files it did not write (the reaper's scan, the checkpoint pruner's
// skip hook): Read returns a document or an error, Live a verdict, neither
// panics, and an unreadable or expired lease is never reported live.
func FuzzLeaseRead(f *testing.F) {
	host, _ := os.Hostname()
	for _, info := range []Info{
		{RunID: "r000001", Owner: "m1", Host: host, PID: os.Getpid(), Token: 1, ExpiresUnixNS: time.Now().Add(time.Hour).UnixNano()},
		{RunID: "r000004", Owner: "gone", Host: host, PID: 1 << 30, Token: 5, ExpiresUnixNS: time.Now().Add(time.Hour).UnixNano()},
		{Owner: "far", Host: "elsewhere", PID: 7, Token: 2, ExpiresUnixNS: 1},
	} {
		raw, err := json.Marshal(&info)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(""))
	f.Add([]byte("{torn"))
	f.Add([]byte(`{"pid":-1,"token":"x"}`))
	f.Add([]byte(`{"host":"` + host + `","pid":0,"expires_unix_ns":9223372036854775807}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := leasePath(t)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := Read(path)
		before := time.Now()
		live := Live(path)
		if err != nil && (live || info != (Info{})) {
			t.Fatalf("unreadable lease (%v) reported live=%v info=%+v", err, live, info)
		}
		if live && info.Expired(before) {
			t.Fatalf("expired lease %+v reported live", info)
		}
	})
}
