package remote

import (
	"fmt"
	"time"

	"sensorcer/internal/repl"
	"sensorcer/internal/srpc"
	"sensorcer/internal/wal"
)

// ReplicationKind is the ProxyDesc kind for a shard backup reachable
// over srpc: a primary ships its journal to it exactly as it would to
// an in-process node.
const ReplicationKind = "replication"

// Replication wire messages. Payloads are raw WAL record bytes —
// encoding/json transports [][]byte as base64 strings, so arbitrary
// record contents survive the trip.
type wireShipBatch struct {
	Epoch    uint64   `json:"epoch"`
	FirstSeq uint64   `json:"firstSeq"`
	Payloads [][]byte `json:"payloads,omitempty"`
}

type wireShipResult struct {
	NextSeq uint64 `json:"nextSeq"`
}

type wireShipSnapshot struct {
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
	Data  []byte `json:"data"`
}

type wireHeartbeat struct {
	Epoch uint64 `json:"epoch"`
}

// ServeReplication exports a node's replication endpoints (batch ship,
// snapshot install, heartbeat) on the srpc server under the shard name,
// returning the proxy descriptor a remote primary dials.
func ServeReplication(server *srpc.Server, shardName string, node *repl.Node) ProxyDesc {
	srpc.HandleFunc(server, "repl.ship."+shardName, func(p wireShipBatch) (any, error) {
		next, err := node.ShipBatch(p.Epoch, p.FirstSeq, p.Payloads)
		if err != nil {
			return nil, err
		}
		return wireShipResult{NextSeq: next}, nil
	})
	srpc.HandleFunc(server, "repl.snapshot."+shardName, func(p wireShipSnapshot) (any, error) {
		if err := node.ShipSnapshot(p.Epoch, p.Seq, p.Data); err != nil {
			return nil, err
		}
		return wireShipResult{NextSeq: p.Seq + 1}, nil
	})
	srpc.HandleFunc(server, "repl.heartbeat."+shardName, func(p wireHeartbeat) (any, error) {
		if err := node.Heartbeat(p.Epoch); err != nil {
			return nil, err
		}
		return struct{}{}, nil
	})
	return ProxyDesc{Kind: ReplicationKind, Locator: server.Addr(), Service: shardName}
}

// ReplicationClient is a repl.Follower stub over srpc: the remote half
// of a cross-process shard pair.
type ReplicationClient struct {
	desc    ProxyDesc
	client  *srpc.Client
	timeout time.Duration
}

// NewReplicationClient materializes a follower stub from a replication
// proxy descriptor. The timeout bounds each ship — a primary
// acknowledges nothing while a ship is in flight, so an unresponsive
// backup must fail the ship (suspending the primary) rather than stall
// every writer forever.
func NewReplicationClient(desc ProxyDesc, timeout time.Duration) (*ReplicationClient, error) {
	if desc.Kind != ReplicationKind {
		return nil, fmt.Errorf("remote: descriptor kind %q is not a replication endpoint", desc.Kind)
	}
	client, err := srpc.Dial(desc.Locator, timeout)
	if err != nil {
		return nil, fmt.Errorf("remote: dialing %s: %w", desc.Locator, err)
	}
	return &ReplicationClient{desc: desc, client: client, timeout: timeout}, nil
}

// replSentinels are the server-side failures the replication layer
// branches on (see sentinelErr): a primary must distinguish "stale
// epoch, fence yourself" from "backup unreachable, suspend".
var replSentinels = []error{repl.ErrStaleEpoch, repl.ErrNodeDown, wal.ErrSeqGap, wal.ErrCompacted}

// ShipBatch implements repl.Follower over srpc.
func (c *ReplicationClient) ShipBatch(epoch, firstSeq uint64, payloads [][]byte) (uint64, error) {
	var res wireShipResult
	err := c.client.CallWithTimeout("repl.ship."+c.desc.Service,
		wireShipBatch{Epoch: epoch, FirstSeq: firstSeq, Payloads: payloads}, &res, c.timeout)
	if err != nil {
		return 0, sentinelErr(err, replSentinels...)
	}
	return res.NextSeq, nil
}

// ShipSnapshot implements repl.Follower over srpc.
func (c *ReplicationClient) ShipSnapshot(epoch, seq uint64, data []byte) error {
	var res wireShipResult
	err := c.client.CallWithTimeout("repl.snapshot."+c.desc.Service,
		wireShipSnapshot{Epoch: epoch, Seq: seq, Data: data}, &res, c.timeout)
	return sentinelErr(err, replSentinels...)
}

// Heartbeat implements repl.Follower over srpc.
func (c *ReplicationClient) Heartbeat(epoch uint64) error {
	var res struct{}
	err := c.client.CallWithTimeout("repl.heartbeat."+c.desc.Service,
		wireHeartbeat{Epoch: epoch}, &res, c.timeout)
	return sentinelErr(err, replSentinels...)
}

// Close releases the stub's connection.
func (c *ReplicationClient) Close() { c.client.Close() }

var _ repl.Follower = (*ReplicationClient)(nil)
