package pstream_test

import (
	"context"
	"testing"
	"time"

	"proxystore/internal/kvstore"
	"proxystore/internal/pstream"
	"proxystore/internal/pstream/brokertest"
)

// TestKVBrokerChurn runs the heartbeat/churn battery against KVBrokers
// sharing one kvstore server: heartbeat-driven reclamation must beat the
// lease, and a 32-member join/leave storm must keep exactly-once delivery
// and GC every membership key.
func TestKVBrokerChurn(t *testing.T) {
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	cli := kvstore.NewClient(srv.Addr())
	t.Cleanup(func() { cli.Close() })

	brokertest.RunChurn(t,
		func(t *testing.T, lease, heartbeat time.Duration) *pstream.KVBroker {
			return pstream.NewKV(srv.Addr(),
				pstream.WithKVLease(lease),
				pstream.WithKVHeartbeatTTL(heartbeat))
		},
		brokertest.ChurnOptions{
			DBSize: func() (int64, error) { return cli.DBSize(context.Background()) },
			DebugMGet: func(keys ...string) [][]byte {
				raws, _ := kvstore.MGet(context.Background(), cli, keys...)
				return raws
			},
		})
}
