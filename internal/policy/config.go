// Package policy provides GQ's containment policies: the configuration file
// format of Fig. 6, a registry of codified policies (Python classes in the
// paper, Go types here) arranged in the §6.2 hierarchy — a default-deny
// base, endpoint-control specialisations, a spambot base that reflects all
// outbound SMTP, and per-family refinements — plus the content-control
// handlers (auto-infection serving, C&C filtering).
package policy

import (
	"fmt"
	"path"
	"strconv"
	"strings"

	"gq/internal/containment"
	"gq/internal/netstack"
)

// AddrPort locates a service.
type AddrPort struct {
	Addr netstack.Addr
	Port uint16
}

// IsZero reports whether the location is unset.
func (ap AddrPort) IsZero() bool { return ap.Addr == 0 && ap.Port == 0 }

// String renders "addr:port".
func (ap AddrPort) String() string { return fmt.Sprintf("%s:%d", ap.Addr, ap.Port) }

// VLANRule is one "[VLAN lo-hi]" section: which policy contains those
// inmates, which samples to infect them with, and any activity triggers.
type VLANRule struct {
	Lo, Hi    uint16
	Decider   string
	Infection string // glob over sample names, e.g. rustock.100921.*.exe
	Triggers  []*containment.Trigger
}

// Config is a parsed containment server configuration file. It serves four
// purposes (§6.2): initial policy assignment per inmate, the malware
// binaries to infect inmates with, activity triggers, and the locations of
// infrastructure services in the subfarm.
type Config struct {
	VLANRules []VLANRule
	Services  map[string]AddrPort
}

// Service returns a named service location (zero value if absent).
func (c *Config) Service(name string) AddrPort { return c.Services[name] }

// RuleFor returns the first VLAN rule with a decider covering vlan.
func (c *Config) RuleFor(vlan uint16) (VLANRule, bool) {
	for _, r := range c.VLANRules {
		if vlan >= r.Lo && vlan <= r.Hi && r.Decider != "" {
			return r, true
		}
	}
	return VLANRule{}, false
}

// Parse reads the Fig. 6 configuration format.
func Parse(text string) (*Config, error) {
	cfg := &Config{Services: make(map[string]AddrPort)}
	var vlanRule *VLANRule // current [VLAN ...] section
	var svcName string     // current service section
	var svc AddrPort

	flushSvc := func() {
		if svcName != "" {
			cfg.Services[svcName] = svc
			svcName, svc = "", AddrPort{}
		}
	}
	flushVLAN := func() {
		if vlanRule != nil {
			cfg.VLANRules = append(cfg.VLANRules, *vlanRule)
			vlanRule = nil
		}
	}

	for lineno, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, ";") {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("policy: line %d: unterminated section %q", lineno+1, line)
			}
			flushSvc()
			flushVLAN()
			name := strings.TrimSpace(line[1 : len(line)-1])
			if strings.HasPrefix(strings.ToUpper(name), "VLAN ") {
				lo, hi, err := parseVLANRange(name[5:])
				if err != nil {
					return nil, fmt.Errorf("policy: line %d: %v", lineno+1, err)
				}
				vlanRule = &VLANRule{Lo: lo, Hi: hi}
			} else {
				svcName = name
			}
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, fmt.Errorf("policy: line %d: expected key = value, got %q", lineno+1, line)
		}
		key := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		switch {
		case vlanRule != nil:
			switch key {
			case "Decider":
				vlanRule.Decider = val
			case "Infection":
				vlanRule.Infection = val
			case "Trigger":
				tr, err := containment.ParseTrigger(val)
				if err != nil {
					return nil, fmt.Errorf("policy: line %d: %v", lineno+1, err)
				}
				vlanRule.Triggers = append(vlanRule.Triggers, tr)
			default:
				return nil, fmt.Errorf("policy: line %d: unknown VLAN key %q", lineno+1, key)
			}
		case svcName != "":
			switch key {
			case "Address":
				a, err := netstack.ParseAddr(val)
				if err != nil {
					return nil, fmt.Errorf("policy: line %d: %v", lineno+1, err)
				}
				svc.Addr = a
			case "Port":
				p, err := strconv.Atoi(val)
				if err != nil || p < 0 || p > 65535 {
					return nil, fmt.Errorf("policy: line %d: bad port %q", lineno+1, val)
				}
				svc.Port = uint16(p)
			default:
				return nil, fmt.Errorf("policy: line %d: unknown service key %q", lineno+1, key)
			}
		default:
			return nil, fmt.Errorf("policy: line %d: assignment outside any section", lineno+1)
		}
	}
	flushSvc()
	flushVLAN()
	return cfg, nil
}

func parseVLANRange(s string) (uint16, uint16, error) {
	s = strings.TrimSpace(s)
	lo, hi := s, s
	if dash := strings.IndexByte(s, '-'); dash >= 0 {
		lo, hi = strings.TrimSpace(s[:dash]), strings.TrimSpace(s[dash+1:])
	}
	l, err := strconv.Atoi(lo)
	if err != nil {
		return 0, 0, fmt.Errorf("bad VLAN range %q", s)
	}
	h, err := strconv.Atoi(hi)
	if err != nil {
		return 0, 0, fmt.Errorf("bad VLAN range %q", s)
	}
	if l < 1 || h > int(netstack.MaxVLAN) || l > h {
		return 0, 0, fmt.Errorf("VLAN range %q out of order or bounds", s)
	}
	return uint16(l), uint16(h), nil
}

// MatchSample reports whether a sample name matches an Infection glob.
func MatchSample(glob, name string) bool {
	ok, err := path.Match(glob, name)
	return err == nil && ok
}
