package experiments

import (
	"context"
	"fmt"

	"proxystore/internal/bench"
	"proxystore/internal/endpoint"
	"proxystore/internal/kvstore"
	"proxystore/internal/netsim"
	"proxystore/internal/relay"
)

// Fig9 reproduces Figure 9: GET and SET times between two PS-endpoints at
// increasing distance (Theta—Theta, Midway2—Theta, Frontera—Theta), against
// a Redis server on the target site reached through an SSH tunnel.
//
// The paper's two findings reproduce structurally: the endpoint path has
// one more hop (client — local endpoint — remote endpoint vs client —
// Redis), so Redis wins where latency is low; and the endpoints' WebRTC
// channel (conservative congestion control + UDP throttling) falls further
// behind as payloads grow.
func Fig9(cfg Config) (bench.Report, error) {
	cfg = cfg.withDefaults()
	net := netsim.Testbed(cfg.Scale)

	report := bench.Report{
		Title:   "Figure 9: endpoint peering vs Redis over SSH",
		Headers: []string{"scenario", "method", "op", "size", "mean"},
	}
	report.AddNote("endpoint path pays an extra hop and UDP-throttled channel; Redis rides TCP")

	relaySrv, err := relay.NewServer("127.0.0.1:0")
	if err != nil {
		return report, err
	}
	defer relaySrv.Close()

	scenarios := []struct {
		name  string
		siteA string // client side
		siteB string // target side
	}{
		{"Theta->Theta", netsim.SiteThetaLogin, netsim.SiteTheta},
		{"Midway2->Theta", netsim.SiteMidway2, netsim.SiteTheta},
		{"Frontera->Theta", netsim.SiteFrontera, netsim.SiteTheta},
	}

	sizes := []int{1 << 10, 100 << 10, 1 << 20, 10 << 20}
	ctx := context.Background()

	for _, sc := range scenarios {
		// --- PS-endpoints: one per site, client talks to the local one.
		epA, err := endpoint.Start("127.0.0.1:0", relaySrv.Addr(), endpoint.Options{
			UUID: uniqueName("f9-a"), Site: sc.siteA, Net: net,
		})
		if err != nil {
			return report, err
		}
		epB, err := endpoint.Start("127.0.0.1:0", relaySrv.Addr(), endpoint.Options{
			UUID: uniqueName("f9-b"), Site: sc.siteB, Net: net,
		})
		if err != nil {
			epA.Close()
			return report, err
		}
		epCli := endpoint.NewClient(epA.Addr(),
			endpoint.WithClientNetwork(net, sc.siteA, sc.siteA))

		// --- Redis on the target site, reached via an SSH tunnel: the
		// tunnel is a TCP relay, modeled as the plain site-to-site link.
		kv, err := kvstore.NewServer("127.0.0.1:0")
		if err != nil {
			epA.Close()
			epB.Close()
			return report, err
		}
		kvCli := kvstore.NewClient(kv.Addr(),
			kvstore.WithClientNetwork(net, sc.siteA, sc.siteB))

		for _, size := range sizes {
			if size > cfg.MaxPayload {
				continue
			}
			payload := pattern(size)

			// Seed objects for GETs: on endpoint B (remote) and Redis.
			seedCli := endpoint.NewClient(epB.Addr())
			if err := seedCli.Set(ctx, "f9-obj", payload); err != nil {
				seedCli.Close()
				return report, err
			}
			seedCli.Close()
			if err := kvstore.Set(ctx, kvCli, "f9-obj", payload); err != nil {
				return report, err
			}

			type point struct {
				method string
				op     string
				fn     func() error
			}
			var i int
			points := []point{
				{"PS-Endpoints", "SET", func() error {
					i++
					return epCli.Set(ctx, fmt.Sprintf("f9-set-%d", i), payload)
				}},
				{"PS-Endpoints", "GET", func() error {
					_, found, err := epCli.Get(ctx, epB.UUID(), "f9-obj")
					if err == nil && !found {
						return fmt.Errorf("fig9: object missing")
					}
					return err
				}},
				{"Redis+SSH", "SET", func() error {
					i++
					return kvstore.Set(ctx, kvCli, fmt.Sprintf("f9-kset-%d", i), payload)
				}},
				{"Redis+SSH", "GET", func() error {
					_, ok, err := kvstore.Get(ctx, kvCli, "f9-obj")
					if err == nil && !ok {
						return fmt.Errorf("fig9: redis object missing")
					}
					return err
				}},
			}
			for _, pt := range points {
				summary, err := bench.Measure(cfg.Repeats, pt.fn)
				if err != nil {
					epA.Close()
					epB.Close()
					kv.Close()
					return report, fmt.Errorf("fig9 %s/%s/%s/%d: %w", sc.name, pt.method, pt.op, size, err)
				}
				report.AddRow(sc.name, pt.method, pt.op, bench.FormatBytes(size),
					bench.FormatDuration(summary.Mean))
			}
		}

		epCli.Close()
		kvCli.Close()
		kv.Close()
		epA.Close()
		epB.Close()
	}
	return report, nil
}

// Fig9Ablation compares the endpoint peer channel's congestion controllers
// directly: the aiortc-like fixed window against BBR-like control on the
// long-fat Frontera—Theta link (the §5.3.2 diagnosis, and DESIGN.md
// ablation #5).
func Fig9Ablation(cfg Config) (bench.Report, error) {
	cfg = cfg.withDefaults()
	report := bench.Report{
		Title:   "Figure 9 ablation: peer-channel congestion control",
		Headers: []string{"cc", "size", "mean"},
	}
	net := netsim.Testbed(cfg.Scale)

	relaySrv, err := relay.NewServer("127.0.0.1:0")
	if err != nil {
		return report, err
	}
	defer relaySrv.Close()

	for _, cc := range []string{"fixed(aiortc)", "bbr-like"} {
		opts := endpoint.Options{Site: netsim.SiteFrontera, Net: net, UUID: uniqueName("f9ab-a")}
		optsB := endpoint.Options{Site: netsim.SiteTheta, Net: net, UUID: uniqueName("f9ab-b")}
		if cc == "bbr-like" {
			opts.NewCC = endpoint.BBRCC
			optsB.NewCC = endpoint.BBRCC
		}
		epA, err := endpoint.Start("127.0.0.1:0", relaySrv.Addr(), opts)
		if err != nil {
			return report, err
		}
		epB, err := endpoint.Start("127.0.0.1:0", relaySrv.Addr(), optsB)
		if err != nil {
			epA.Close()
			return report, err
		}
		cli := endpoint.NewClient(epA.Addr())

		ctx := context.Background()
		for _, size := range []int{100 << 10, 1 << 20, 10 << 20} {
			if size > cfg.MaxPayload {
				continue
			}
			payload := pattern(size)
			seed := endpoint.NewClient(epB.Addr())
			if err := seed.Set(ctx, "ab-obj", payload); err != nil {
				seed.Close()
				return report, err
			}
			seed.Close()
			summary, err := bench.Measure(cfg.Repeats, func() error {
				_, _, err := cli.Get(ctx, epB.UUID(), "ab-obj")
				return err
			})
			if err != nil {
				return report, err
			}
			report.AddRow(cc, bench.FormatBytes(size), bench.FormatDuration(summary.Mean))
		}
		cli.Close()
		epA.Close()
		epB.Close()
	}
	report.AddNote("fixed window caps throughput at window/RTT; BBR-like fills the (throttled) pipe")
	return report, nil
}
