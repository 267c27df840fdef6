package farm

import (
	"fmt"
	"strings"
	"time"

	"gq/internal/containment"
	"gq/internal/dhcp"
	"gq/internal/dnsx"
	"gq/internal/gateway"
	"gq/internal/host"
	"gq/internal/inmate"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/policy"
	"gq/internal/report"
	"gq/internal/sink"
	"gq/internal/supervisor"
)

// AddSubfarm builds a complete habitat: packet router, containment server
// (with its management-network interface), sinks, DHCP and DNS, policies
// and triggers from the Fig. 6 config text, and analyzers.
func (f *Farm) AddSubfarm(cfg SubfarmConfig) (*Subfarm, error) {
	if cfg.InternalPrefix.Bits == 0 {
		cfg.InternalPrefix = netstack.MustParsePrefix("10.0.0.0/16")
	}
	if cfg.ServicePrefix.Bits == 0 {
		cfg.ServicePrefix = netstack.MustParsePrefix("10.3.0.0/16")
	}
	if cfg.ServiceVLAN == 0 {
		cfg.ServiceVLAN = cfg.VLANHi + 1
	}
	if cfg.FallbackPolicy == "" {
		cfg.FallbackPolicy = "DefaultDeny"
	}

	sf := &Subfarm{
		Farm: f, Name: cfg.Name, Config: cfg,
		VLANs:    inmate.NewVLANPool(cfg.VLANLo, cfg.VLANHi),
		Inmates:  make(map[uint16]*FarmInmate),
		SvcHosts: make(map[string]*host.Host),
	}

	// In a sharded farm the whole habitat — router, switch, services,
	// inmates — lives in its own simulation domain; only the uplink to the
	// gateway core and the management NIC cross into the root domain.
	dom, sw := f.Sim, f.InmateSwitch
	if f.Coord != nil {
		dom = f.Coord.NewDomain()
		sw = netsim.NewSwitch(dom, "inmate-"+cfg.Name)
	}
	sf.Sim, sf.sw = dom, sw

	svc := func(off int) netstack.Addr { return cfg.ServicePrefix.Nth(off) }
	routerIP := cfg.InternalPrefix.Nth(1)
	svcRouterIP := cfg.ServicePrefix.Nth(defaultSvcGateway)
	nonceIP := netstack.MustParseAddr("10.4.0.1")

	nCS := cfg.ContainmentServers
	if nCS < 1 {
		nCS = 1
	}
	csAddr := func(i int) netstack.Addr {
		if i == 0 {
			return svc(csAddrOff)
		}
		return svc(20 + i)
	}
	var cluster []gateway.ContainmentEndpoint
	for i := 0; i < nCS; i++ {
		cluster = append(cluster, gateway.ContainmentEndpoint{
			VLAN: cfg.ServiceVLAN, IP: csAddr(i), Port: ContainmentPort,
		})
	}

	sf.Router = f.Gateway.AddRouterIn(dom, gateway.RouterConfig{
		Name:   cfg.Name,
		VLANLo: cfg.VLANLo, VLANHi: cfg.VLANHi,
		ServiceVLANs:       []uint16{cfg.ServiceVLAN},
		InternalPrefix:     cfg.InternalPrefix,
		RouterIP:           routerIP,
		ServicePrefix:      cfg.ServicePrefix,
		ServiceRouterIP:    svcRouterIP,
		GlobalPool:         cfg.GlobalPool,
		GlobalPoolStart:    16,
		InboundMode:        cfg.InboundMode,
		InfraPool:          cfg.InfraPool,
		NonceIP:            nonceIP,
		ContainmentCluster: cluster,
		GRETunnels:         cfg.GRETunnels,

		MaxFlowsPerMinute:        cfg.MaxFlowsPerMinute,
		MaxFlowsPerDestPerMinute: cfg.MaxFlowsPerDestPerMinute,
	})
	if f.Coord != nil {
		// Wire the private switch into the router's private trunk. The
		// switch and router share a domain, so the trunk hop itself is free;
		// the lookahead latency sits on the router's uplink to the core.
		netsim.Connect(sw.AddTrunkPort("uplink"), sf.Router.TrunkPort(), 0)
	}

	// Parse the policy configuration first: it locates services.
	pcfg := &policy.Config{Services: map[string]policy.AddrPort{}}
	if cfg.PolicyConfig != "" {
		parsed, err := policy.Parse(cfg.PolicyConfig)
		if err != nil {
			return nil, err
		}
		pcfg = parsed
	}
	sf.PolicyConfig = pcfg

	// Containment servers: inmate-network presence plus management NIC.
	for i := 0; i < nCS; i++ {
		h := sf.newSvcHost(csName(i), csAddr(i), cfg.AccessLatency)
		srv, err := containment.NewServer(h, ContainmentPort, nonceIP)
		if err != nil {
			return nil, err
		}
		sf.CSCluster = append(sf.CSCluster, srv)
		if i == 0 {
			sf.CSHost = h
			sf.CS = srv
		}
	}
	f.nextMgmt++
	// The management NIC lives in the subfarm's domain (the containment
	// server drives it from there); its link to the root-domain management
	// switch carries the cross-domain floor latency when sharded.
	sf.CSMgmt = f.newHostIn(dom, cfg.Name+"-cs-mgmt")
	netsim.Connect(f.MgmtSwitch.AddAccessPort(cfg.Name+"-cs", 999), sf.CSMgmt.NIC(), dom.CrossFloor(f.Sim))
	sf.CSMgmt.ConfigureStatic(netstack.AddrFrom4(172, 16, 0, byte(f.nextMgmt)), 24, 0)
	farmScope := dom.Obs().Scope(cfg.Name, 0)
	lifecycle := func(line string) {
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return
		}
		var vlan uint16
		fmt.Sscanf(fields[3], "%d", &vlan)
		// Journal the lifecycle action ("inmate.revert", ...) before it is
		// dispatched to the controller.
		farmScope.Emit(obs.Event{Type: obs.EvInmatePrefix + fields[1], VLAN: vlan})
		// A supervised subfarm also counts the firing as a strike toward
		// inmate quarantine.
		if sf.Supervisor != nil {
			sf.Supervisor.Strike(vlan, "trigger:"+fields[1])
		}
		inmate.SendAction(sf.CSMgmt, f.ControllerHost, fields[1], vlan, nil)
	}
	for _, srv := range sf.CSCluster {
		srv.SetLifecycleSink(lifecycle)
	}

	// Sinks, and the policy environment's view of where they are.
	services := map[string]policy.AddrPort{policy.SvcAutoinfect: DefaultAutoinfect}
	for _, row := range sinkTable {
		h := sf.newSvcHost(row.id, svc(row.off), cfg.AccessLatency)
		rebind, err := sf.startSink(row.id, h)
		if err != nil {
			return nil, err
		}
		sf.sinks = append(sf.sinks, supervisor.Endpoint{ID: row.id, Host: h, Port: row.probe, Rebind: rebind})
		services[row.service] = policy.AddrPort{Addr: svc(row.off), Port: row.port}
	}
	var err error

	// Infrastructure services in the inmates' broadcast domain: DHCP and
	// the recursive resolver carry inmate-subnet addresses but live on the
	// service VLAN; the gateway's bridge spans the restricted broadcast
	// domain (§5.3).
	dhcpHost := f.newHostIn(dom, cfg.Name+"-dhcp")
	netsim.Connect(sw.AddAccessPort(cfg.Name+"-dhcp", cfg.ServiceVLAN), dhcpHost.NIC(), 0)
	dhcpHost.ConfigureStatic(cfg.InternalPrefix.Nth(2), cfg.InternalPrefix.Bits, routerIP)
	dnsHost := f.newHostIn(dom, cfg.Name+"-dns")
	netsim.Connect(sw.AddAccessPort(cfg.Name+"-dns", cfg.ServiceVLAN), dnsHost.NIC(), 0)
	dnsHost.ConfigureStatic(cfg.InternalPrefix.Nth(3), cfg.InternalPrefix.Bits, routerIP)

	sf.DHCP, err = dhcp.NewServer(dhcpHost, dhcp.ServerConfig{
		Pool: cfg.InternalPrefix, PoolStart: 16,
		Router: routerIP, DNS: dnsHost.Addr(),
		SubnetBits: cfg.InternalPrefix.Bits,
	})
	if err != nil {
		return nil, err
	}
	sf.DNS, err = dnsx.NewServer(dnsHost, nil)
	if err != nil {
		return nil, err
	}

	// Policy environment.
	for name, loc := range pcfg.Services {
		services[name] = loc
	}
	sf.Samples = policy.NewBatchProvider(cfg.RepeatBatches)
	sf.Policy = &policy.Env{
		Services:       services,
		InternalPrefix: cfg.InternalPrefix,
		CCHosts:        cfg.CCHosts,
		Samples:        sf.Samples,
		NotifySink: func(svcName string, inmateAddr, target netstack.Addr) {
			if svcName != policy.SvcBannerSMTPSink {
				return
			}
			// Control datagram from the CS to the banner sink (same
			// service subnet, direct L2).
			sock, err := sf.CSHost.ListenUDP(0, nil)
			if err != nil {
				return
			}
			defer sock.Close()
			msg := fmt.Sprintf("EXPECT %s %s", inmateAddr, target)
			sock.SendTo(svc(bannerSinkOff), 26, []byte(msg))
		},
	}

	// Apply policies and triggers from the config, to every cluster member.
	// Deciders are wrapped with registry counters; cluster members share
	// series because obs registration is idempotent by name.
	for _, srv := range sf.CSCluster {
		srv.Triggers().SetScope(farmScope)
		for _, rule := range pcfg.VLANRules {
			if rule.Decider != "" {
				d, err := policy.New(rule.Decider, sf.Policy)
				if err != nil {
					return nil, err
				}
				srv.AddPolicy(rule.Lo, rule.Hi, policy.Instrument(d, f.Sim.Obs().Reg))
			}
			for _, tr := range rule.Triggers {
				srv.Triggers().AddRule(rule.Lo, rule.Hi, tr)
			}
		}
		fallback, err := policy.New(cfg.FallbackPolicy, sf.Policy)
		if err != nil {
			return nil, err
		}
		srv.SetFallback(policy.Instrument(fallback, f.Sim.Obs().Reg))
	}

	// The SMTP analyzer on the subfarm tap.
	sf.SMTPAnalyzer = report.NewSMTPAnalyzer()
	sf.Router.AddTap(sf.SMTPAnalyzer.Tap)

	f.Subfarms = append(f.Subfarms, sf)
	return sf, nil
}

// sinkTable is the subfarm's sink servers, one row each: the SvcHosts key
// (also the supervision endpoint id), the policy service it backs, its
// service-prefix offset and service port, and the TCP port supervision
// probes (the catch-all listens on every port; 9, discard, is as good a
// probe target as any).
var sinkTable = []struct {
	id, service string
	off         int
	port, probe uint16
}{
	{"catchall", policy.SvcCatchAllSink, 2, 0, 9},
	{"smtpsink", policy.SvcSMTPSink, 3, 25, 25},
	{"bannersink", policy.SvcBannerSMTPSink, bannerSinkOff, 25, 25},
	{"httpsink", policy.SvcHTTPSink, 5, 80, 80},
}

// startSink starts sinkTable row id on its host and returns the
// listener-rebind a supervised restart replays.
func (sf *Subfarm) startSink(id string, h *host.Host) (rebind func() error, err error) {
	cfg := sf.Config
	smtp := sink.SMTPConfig{Port: 25, DropProb: cfg.SinkDropProb, Strictness: cfg.SinkStrictness}
	switch id {
	case "catchall":
		sf.CatchAll = sink.NewCatchAll(h)
		return sf.CatchAll.Rebind, nil
	case "smtpsink":
		sf.SMTPSink, err = sink.NewSMTPSink(h, smtp)
		return sf.SMTPSink.Rebind, err
	case "bannersink":
		smtp.BannerGrab = cfg.BannerGrab
		sf.BannerSink, err = sink.NewSMTPSink(h, smtp)
		return sf.BannerSink.Rebind, err
	}
	sf.HTTPSink, err = sink.NewHTTPSink(h, 80)
	return sf.HTTPSink.Rebind, err
}

// newSvcHost puts one more host on the service VLAN — registered with the
// router as a flow responder and in SvcHosts under name.
func (sf *Subfarm) newSvcHost(name string, addr netstack.Addr, latency time.Duration) *host.Host {
	cfg := sf.Config
	h := sf.Farm.newHostIn(sf.Sim, cfg.Name+"-"+name)
	netsim.Connect(sf.sw.AddAccessPort(cfg.Name+"-"+name, cfg.ServiceVLAN), h.NIC(), latency)
	h.ConfigureStatic(addr, cfg.ServicePrefix.Bits, cfg.ServicePrefix.Nth(defaultSvcGateway))
	sf.Router.RegisterServiceHost(addr, cfg.ServiceVLAN)
	sf.SvcHosts[name] = h
	return h
}

// csName is the SvcHosts key of containment-server cluster member i.
func csName(i int) string { return fmt.Sprintf("cs%d", i) }

// Reporter builds a Fig. 7 reporter over the farm's subfarms.
func (f *Farm) Reporter(anonymize bool) *report.Reporter {
	r := &report.Reporter{Sim: f.Sim, CBL: f.CBL, Anonymize: anonymize, Obs: f.Sim.Obs()}
	for _, sf := range f.Subfarms {
		r.Subfarms = append(r.Subfarms, report.SubfarmSource{
			Name: sf.Name, Router: sf.Router, SMTP: sf.SMTPAnalyzer,
		})
	}
	return r
}
