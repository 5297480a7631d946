package main

// Two single-shard cluster nodes served in-process on loopback TCP, fed by
// one cluster.Client. The benchmark owns the listeners, so it wraps every
// accepted connection to count the bytes the wire carries.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/esl"
	"repro/internal/spec"
	"repro/internal/stream"
)

const clusterNodes = 2

// wireCounter totals bytes read and written on the node side of every
// connection.
type wireCounter struct{ n atomic.Int64 }

type countedConn struct {
	net.Conn
	c *wireCounter
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.n.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.n.Add(int64(n))
	return n, err
}

// openCluster starts the nodes, dials them, runs the DDL, registers the
// queries and seals the placement — all of it set-up time.
func openCluster(s *sink, opts []esl.Option, ddl string, qs []querySpec) (*system, error) {
	wc := &wireCounter{}
	var wg sync.WaitGroup
	errs := make([]error, clusterNodes)
	addrs := make([]string, clusterNodes)
	lns := make([]net.Listener, 0, clusterNodes)
	stopListeners := func() {
		for _, l := range lns {
			l.Close()
		}
	}
	for i := 0; i < clusterNodes; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stopListeners()
			wg.Wait()
			return nil, err
		}
		lns = append(lns, l)
		addrs[i] = l.Addr().String()
		node := cluster.NewNode(cluster.NodeConfig{Shards: 1, Options: opts})
		wg.Add(1)
		go func(i int, l net.Listener) {
			defer wg.Done()
			conn, err := l.Accept()
			l.Close()
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = node.Serve(&countedConn{Conn: conn, c: wc})
		}(i, l)
	}
	client, err := cluster.Dial(cluster.Config{Nodes: addrs, BatchSize: dockBatch, Options: opts})
	if err != nil {
		stopListeners()
		wg.Wait()
		return nil, fmt.Errorf("dial: %w", err)
	}
	fail := func(err error) (*system, error) {
		client.Close()
		stopListeners()
		wg.Wait()
		return nil, err
	}
	if _, err := client.Exec(ddl); err != nil {
		return fail(fmt.Errorf("ddl: %w", err))
	}
	err = register(func(name, sql string, fn func(esl.Row), lvl spec.Level) error {
		if fn == nil || lvl != spec.Strict {
			return fmt.Errorf("cluster set-up takes strict sink queries only")
		}
		_, err := client.RegisterQuery(name, sql, fn)
		return err
	}, qs, s, nil)
	if err != nil {
		return fail(err)
	}
	if err := client.Seal(); err != nil {
		return fail(fmt.Errorf("seal: %w", err))
	}
	return &system{
		push:  func(call []stream.Item) error { return client.PushBatch(call) },
		drain: client.Drain,
		close: func() error {
			err := client.Close()
			wg.Wait()
			for _, e := range errs {
				if e != nil && !errors.Is(e, net.ErrClosed) {
					err = errors.Join(err, e)
				}
			}
			return err
		},
		client: client,
		wire:   wc,
	}, nil
}
