#!/bin/sh
# check_seams.sh — the rule for crossing a simulation-domain boundary lives
# in internal/sim and nowhere else (DESIGN.md §3e): code in a domain reaches
# another through sim.Hop, an outside goroutine enters through sim.Inject.
# Fails when a non-test Go file outside internal/sim (bench/, the frozen
# benchmark harness, aside) posts across domains itself, or when one of the
# retired doorways reappears. Also guards the gateway's one flow lifecycle
# (DESIGN.md §3g), the farm's one wiring site (DESIGN.md §3j), the SMTP
# engine's one binding to a connection and its messages' two keepers, a
# domain's frame-list takers and givers, a link's delivery lanes, the
# learning tables' single writers (DESIGN.md §3b) and supervision's one
# shape and one restart path (DESIGN.md §3f), below.
set -eu
cd "$(git rev-parse --show-toplevel)"
status=0
bad() { # bad <message> <matching lines>
	if [ -n "$2" ]; then
		printf '%s\n%s\n' "check_seams: $1" "$2" >&2
		status=1
	fi
}
files=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/sim/*' ! -path './bench/*')
# shellcheck disable=SC2086
bad "cross-domain post outside internal/sim (use Simulator.Hop)" \
	"$(grep -n '\.PostTo(' $files || true)"
# shellcheck disable=SC2086
bad "retired doorway (use Simulator.Inject / ops.Driver.Do)" \
	"$(grep -nE '\) DoIn\(|\.DoIn\(|[Cc]oord(inator)?\.Post\(' $files || true)"
bad "retired doorway in internal/sim" \
	"$(grep -nE 'func \(c \*Coordinator\) Post\(|ctlPost|drainPosted' internal/sim/*.go || true)"
# A gateway flow has one lifecycle (DESIGN.md §3g): one linger timer in the
# Flow (no per-call Schedule), one walk over the flow table (no seen-set to
# de-duplicate a second one), one constructor each for an originated TCP
# segment and UDP datagram (the only IPv4 header literals in the flow code).
gw=$(find internal/gateway -name '*.go' ! -name '*_test.go')
# shellcheck disable=SC2086
bad "flow timer scheduled per call in internal/gateway (use the Flow's linger sim.Timer)" \
	"$(grep -nE '\.Schedule(At)?\(' $gw || true)"
# shellcheck disable=SC2086
bad "seen-set over flows in internal/gateway (use Router.eachFlow / liveFlows)" \
	"$(grep -nF 'map[*Flow]bool' $gw || true)"
# A flow is found through one index, whose keys Router.register adds and
# Router.unregister removes (DESIGN.md §3g): nothing else writes to it, and the
# five maps it replaced stay gone.
# shellcheck disable=SC2086
bad "flow index written outside Router.register / unregister" \
	"$(awk '/^func /{fn=$0} /\.index(\[[^]]*\])? *=[^=]|(delete|clear)\([^,)]*\.index[,)]/ && fn !~ /\) (register|unregister)\(/ {print FILENAME ":" FNR ": " $0}' $gw)"
# shellcheck disable=SC2086
bad "retired flow map in internal/gateway (use Router.index)" \
	"$(grep -nE '(\.|\b)(flows|udpFlows|byNonce|udpByActual|nonceLegs)(\s+map\[|\s*:|\[)|\.(flows|udpFlows|byNonce|udpByActual|nonceLegs)\b' $gw || true)"
lits=$(cd internal/gateway && grep -nF 'netstack.IPv4{' flow.go splice.go udp.go || true)
if [ "$(printf '%s' "$lits" | grep -c .)" -gt 2 ]; then
	bad "gateway-originated packet built outside newSegment / newDatagram" "$lits"
fi
# Those two fill the router's own header sets (DESIGN.md §3b): the flow code
# allocates no packet headers, and the gateway and the containment server
# encode a shim with AppendTo into storage they own, never Marshal: neither
# on a shim literal nor on any name those packages declare with a shim type
# (variable, parameter or field).
bad "packet headers allocated in the gateway flow code (use Router.newSegment / newDatagram)" \
	"$(cd internal/gateway && grep -nE '&struct\{|&netstack\.Packet\{|&(segment|datagram)Headers\{' flow.go splice.go udp.go health.go || true)"
shimT='shim\.(Request|Response|Heartbeat)'
shimfiles=$(find internal/gateway internal/containment -name '*.go' ! -name '*_test.go')
# shellcheck disable=SC2086
shimvars=$(grep -ohE "\b[A-Za-z_][A-Za-z0-9_]*(\s+|\s*:?=\s*&?)\*?$shimT\b" $shimfiles |
	grep -oE '^[A-Za-z_][A-Za-z0-9_]*' | sort -u | paste -sd'|' -)
# shellcheck disable=SC2086
bad "shim encoded with Marshal in internal/gateway or internal/containment (use AppendTo)" \
	"$(grep -nE "$shimT\{[^}]*\}\)?\.Marshal\(\)${shimvars:+|\b($shimvars)\.Marshal\(\)}" $shimfiles || true)"
# Reports read the journal's fold (report.Fold), not the router's flow
# records: outside internal/gateway, bench/ and examples/, non-test Go calls
# no .Records() (Router.Records keeps only the live and newest closed flows).
# shellcheck disable=SC2086
bad "flow records read outside internal/gateway, bench/ and examples/ (read report.Fold)" \
	"$(grep -n '\.Records()' $(echo "$files" | grep -v -e '^./internal/gateway/' -e '^./examples/') || true)"
# Every frame buffer in a domain cycles through its one frame list
# (DESIGN.md §3b, netsim.Frames): in non-test internal/netsim, internal/host
# and internal/gateway a buffer is taken from the list (.Take) only by the
# named takers, and given back (.Put) only by the named givers. Besides
# frames, the list holds a connection's send buffer (taken in Conn.queue,
# given back in Conn.releaseSend) and a flow's replay buffer (taken in
# Flow.bufferInit, given back through hand.put). Nothing else there makes a
# frame buffer or copies a frame: make([]byte is the list's own
# (Frames.Take), and the one kind of append([]byte(nil), ...) copy allowed in
# netsim and the gateway is a payload a flow keeps past the receive call.
# The function patterns reach awk verbatim through ENVIRON (-v would process
# escapes in them), and an awk that fails stops the check (set -e).
takers='[*]Port[)] (Send|transmit)[(]|[*]Switch[)] untagCopy[(]|[*]Host[)] (newIPFrame|sendARP)[(]|[*]hand[)] marshal[(]|[*]Conn[)] queue[(]|[*]Flow[)] bufferInit[(]'
givers='[*]Host[)] receiveFrame[(]|[*]hand[)] put[(]|[*]Conn[)] releaseSend[(]'
lists=$(find internal/netsim internal/host internal/gateway -name '*.go' ! -name '*_test.go')
# shellcheck disable=SC2086
listed=$(takers=$takers givers=$givers awk 'FNR==1{fn=""} /^func /{fn=$0} /^[ \t]*\/\// {next} (/\.Take[^A-Za-z0-9_]/ && fn !~ ENVIRON["takers"]) || (/\.Put[^A-Za-z0-9_]/ && fn !~ ENVIRON["givers"]) {print FILENAME ":" FNR ": " $0}' $lists)
bad "frame list taken from outside its takers or given back outside its givers" "$listed"
# shellcheck disable=SC2086
made=$(awk 'FNR==1{fn=""} /^func /{fn=$0} /make\(\[\]byte/ && fn !~ /\*Frames\) Take\(/ {print FILENAME ":" FNR ": " $0}' $lists)
bad "frame buffer made outside the frame list (take it with Frames.Take)" "$made"
# shellcheck disable=SC2046
bad "frame copied outside the frame list in internal/netsim or internal/gateway (take it with Frames.Take)" \
	"$(grep -nE 'append\(\[\]byte\(nil\), ' $(find internal/netsim internal/gateway -name '*.go' ! -name '*_test.go') | grep -vF '.Payload...)' || true)"
# A link's frames in flight wait in the receiving port's lane under keys
# stamped when they were sent (DESIGN.md §3b): outside internal/sim only the
# lane code in internal/netsim/port.go stamps a key or arms a timer at one,
# and non-test internal/netsim posts a frame's own timer only where deliver
# hands it to another domain.
# shellcheck disable=SC2086
bad "stamped key taken or armed outside the lane code (Port.deliver / enlane / land in internal/netsim/port.go)" \
	"$(awk 'FNR==1{fn=""} /^func /{fn=$0} /\.(Stamp|ResetAt)\(/ && !(FILENAME == "./internal/netsim/port.go" && fn ~ /\) (deliver|enlane|land)\(/) {print FILENAME ":" FNR ": " $0}' $files)"
netsim=$(find internal/netsim -name '*.go' ! -name '*_test.go')
# shellcheck disable=SC2086
bad "frame timer posted outside Port.deliver's cross-domain branch in internal/netsim (same-domain frames join the lane)" \
	"$(awk 'FNR==1{fn=""} /^func /{fn=$0} /PostTimerTo\(/ && fn !~ /\) deliver\(/ {print FILENAME ":" FNR ": " $0}' $netsim)"
# A frame's table lookups hash once or not at all (DESIGN.md §3b): a switch
# port and an inmate VLAN's slot remember what they last learned, which holds
# only while the table under it is unchanged. So each table has one writer,
# which voids the memos it outdates: the switch's FDB is written and deleted
# from only in learn (which advances its generation); the router's
# macTable only in learnMAC, inmateVLAN only in learnInmate, vlanARP only in
# learnVLANARP, and a slot's fields only in learnMAC and learnInmate.
# shellcheck disable=SC2086
bad "switch FDB written outside Switch.learn (the ports' memos would go stale)" \
	"$(awk 'FNR==1{fn=""} /^func /{fn=$0} /\.fdb(\[[^]]*\])? *=[^=]|(delete|clear)\([^,)]*\.fdb[,)]/ && fn !~ /\) learn\(/ {print FILENAME ":" FNR ": " $0}' $netsim)"
# shellcheck disable=SC2086
bad "router learning table or slot written outside its learn function (its slot would go stale)" \
	"$(awk 'BEGIN{own["macTable"]="learnMAC"; own["inmateVLAN"]="learnInmate"; own["vlanARP"]="learnVLANARP"}
		FNR==1{fn=""} /^func /{fn=$0}
		{for (t in own) if ($0 ~ "\\." t "(\\[[^]]*\\])? *=[^=]|(delete|clear)\\([^,)]*\\." t "[,)]" && fn !~ "\\) " own[t] "\\(") print FILENAME ":" FNR ": " $0}
		/\.(srcOK|hasMAC|bind|natGen|natExhausted)( *,[^=]*)? *=[^=]/ && fn !~ /\) learn(MAC|Inmate)\(/ {print FILENAME ":" FNR ": " $0}' $gw)"
# A message lives only on the wire unless its receiver keeps a copy (DESIGN.md
# §3b): an SMTP engine collects a session's messages into the one Envelope it
# holds and a client renders them into its one Message, so in non-test
# internal/smtpx, internal/sink and internal/malware only the two keepers
# build an Envelope or copy bytes — the sink's keepEnvelope and the
# spambot's retry queue, keepMessage.
mail=$(find internal/smtpx internal/sink internal/malware -name '*.go' ! -name '*_test.go')
# shellcheck disable=SC2086
bad "SMTP message built or copied outside its keepers (sink keepEnvelope, spambot keepMessage)" \
	"$(awk 'FNR==1{fn=""} /^func /{fn=$0} /^[ \t]*\/\// {next} /&(smtpx\.)?Envelope\{|bytes\.Clone\(|append\(\[\]byte\(nil\), / && fn !~ /^func (keepEnvelope|keepMessage)\(/ {print FILENAME ":" FNR ": " $0}' $mail)"
# A farm is wired in one place (DESIGN.md §3j): outside internal/farm and
# the frozen benchmark harness, non-test code describes a farm as a
# farm.Spec and calls Build — never the constructors and wiring primitives
# Build composes.
spec=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/farm/*' ! -path './bench/*')
# shellcheck disable=SC2086
bad "farm wired by hand outside internal/farm (describe it as a farm.Spec and Build it)" \
	"$(grep -nE 'farm\.New\(|farm\.NewSharded|\.AddSubfarm\(|\.SuperviseTree\(|\.StartIronRotation\(' $spec || true)"
# A sharded farm has one layout (DESIGN.md §3e): the external-shard knob is
# gone from every non-test file, internal/farm and bench/ included.
# shellcheck disable=SC2046
bad "external shards are retired (a sharded farm has one external domain)" \
	"$(grep -nE 'NewShardedN|ExternalShardFor|ExtShards' $(find . -name '*.go' ! -name '*_test.go') || true)"
# Supervision has one shape (DESIGN.md §3f): the tree, attached by
# Spec.Supervise or gqfarm -tree. The retired subfarm-only mode stays gone
# from non-test Go outside the frozen benchmark harness, and so do the
# product hooks that only tests set: the SMTP sink's reply overrides and the
# engine's MAIL and RCPT hooks. A test builds its own server. (A product function
# only tests call, such as a test-only server, is scripts/deadapi's to find.)
nonbench=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*')
# shellcheck disable=SC2086
bad "retired supervision mode (attach the tree: Spec.Supervise, gqfarm -tree)" \
	"$(grep -nE 'SuperviseSubfarms|farm\.Unsupervised|func \(sf \*Subfarm\) Supervise\(|rootNode|fs\.Bool\("supervise"' $nonbench || true)"
# shellcheck disable=SC2086
bad "test-only hook in product code (build the server or hook in the test)" \
	"$(grep -nE '\b(RcptReply|DataReply|OnMail|OnRcpt)\b' $nonbench || true)"
# A restart has one path (DESIGN.md §3f): host.PowerCycler, taken with no
# argument, records what the host has bound and its restart puts it back.
# No service re-registers its own ports, and the farm passes no rebind
# closure around.
# shellcheck disable=SC2086
bad "per-service restart code (a restart is host.PowerCycler(), which restores the host's bindings)" \
	"$(grep -nE '\) Rebind\(|\.Rebind\b|\bRebind(:|\s+func)|\bRebindSink\b|PowerCycler\([^)]' $nonbench || true)"
# An SMTP engine meets a connection in one place (DESIGN.md §3b): outside
# internal/smtpx and the frozen benchmark harness, non-test code gets its
# engine from smtpx.Bind, which owns the CRLF framing and the reply buffer.
# shellcheck disable=SC2046
bad "SMTP engine wired to a connection by hand (use smtpx.Bind)" \
	"$(grep -nF 'smtpx.NewEngine(' $(find . -name '*.go' ! -name '*_test.go' ! -path './internal/smtpx/*' ! -path './bench/*') || true)"
# Product code keeps no state nothing reads and no behaviour only tests run
# (ROADMAP item 10). These names were retired with their last non-test
# reader or caller: the simulator's halt flag, the NAT table's internal
# index, the nanosecond pcap writer and the DHCP lease-time setting. (A
# function or method only tests call, such as the simulator's Halt, and a
# field or var that is only written, such as the router's inmate packet
# count or the inmate's transition log, are scripts/deadapi's to find.)
# shellcheck disable=SC2046
bad "retired simulator halt switch" \
	"$(grep -nE '\.halted\b' $(find internal/sim -name '*.go' ! -name '*_test.go') || true)"
# shellcheck disable=SC2086
bad "retired state or test-only behaviour in product code (a test builds what it needs)" \
	"$(grep -nE '\b(byInternal|NewNanoWriter|LeaseTime)\b|"nano-trace"' $nonbench || true)"
# A byte stream is framed in one place (DESIGN.md §3b): a line protocol
# reads its peer through a bounded lineio.Reader and HTTP through
# httpx.Parser, so outside the frozen benchmark harness no non-test code
# rescans a stream as a string or collects what a connection's OnData is
# handed into a buffer of its own to search it (hostnet's net.Conn facade
# keeps its Conn's read buffer, c.buf, which Read drains unsearched).
# shellcheck disable=SC2086
bad "stream framed by hand (read lines with lineio.Reader, HTTP with httpx.Parser)" \
	"$(grep -nE 'IndexByte\(string\(|Contains\(string\(buf\)' $nonbench || true)"
# shellcheck disable=SC2086
bad "OnData bytes collected by hand (read lines with lineio.Reader, HTTP with httpx.Parser)" \
	"$(awk 'FNR==1{in_od=0} /^[ \t]*\/\// {next}
		/OnData = func\(/ {in_od=1; depth=0}
		in_od {
			if ($0 ~ /append\(buf, [A-Za-z_]+\.\.\.\)/) print FILENAME ":" FNR ": " $0
			o=$0; c=$0; depth += gsub(/\{/, "", o) - gsub(/\}/, "", c)
			if (depth <= 0) in_od=0
		}' $nonbench)"
# Names retired with the line framers they belonged to: smtpx's private
# line reader and the per-shim analyzer (AuditTrace counts flows per VLAN).
# (A log or count that is only written, such as the DNS query log, the DHCP
# ACK count or the specimens' event log, is scripts/deadapi's to find.)
# shellcheck disable=SC2086
bad "retired framer or analyzer in product code (lineio.Reader, report.AuditTrace)" \
	"$(grep -nE '\b(lineReader|ShimAnalyzer)\b' $nonbench || true)"
# A lifecycle action reaches the farm as a value, not as a line it parses
# back apart; the sink's HTTP is framed by httpx.Parser, not by a head
# scanner of its own.
# shellcheck disable=SC2086
bad "lifecycle action passed as a formatted line (LifecycleSink takes action and VLAN)" \
	"$(grep -nF 'LifecycleSink func(line' $nonbench || true)"
# shellcheck disable=SC2046
bad "lifecycle line parsed back apart in internal/farm" \
	"$(grep -nF 'Sscanf' $(find internal/farm -name '*.go' ! -name '*_test.go') || true)"
# shellcheck disable=SC2046
bad "HTTP framed by hand in internal/sink (use httpx.Parser)" \
	"$(grep -nE '\b(httpConn|headEnd)\b' $(find internal/sink -name '*.go' ! -name '*_test.go') || true)"
# HTTP's wire format lives in internal/httpx (DESIGN.md §3b "HTTP"): outside
# it and the frozen benchmark harness, non-test code writes a response with
# httpx.AppendResponse and fetches with httpx.Get, so none spells out a
# Content-Length; a parsed message keeps no header map (Response.Header
# reads the section it holds), and the retired builders and client stay
# gone, tests included.
# shellcheck disable=SC2046
bad "HTTP written by hand outside internal/httpx (use httpx.AppendResponse or httpx.Get)" \
	"$(grep -nF 'Content-Length' $(find . -name '*.go' ! -name '*_test.go' ! -path './internal/httpx/*' ! -path './bench/*') || true)"
# shellcheck disable=SC2046
bad "retired HTTP builder, client or header map (httpx.AppendResponse, httpx.Get, Response.Header)" \
	"$(grep -nE 'httpx\.(NewRequest|NewResponse|Do)\(|\.Headers\[' $(find . -name '*.go' ! -path './bench/*') || true)"
# shellcheck disable=SC2046
bad "retired HTTP builder or client in internal/httpx (AppendResponse writes, Get fetches)" \
	"$(grep -nE 'func (NewRequest|NewResponse|Do)\(|\) Marshal\(' $(find internal/httpx -name '*.go') || true)"
# The subfarm names the GMail MX once, in CCHosts["GMailMX"], and passes no
# safety-filter setting through that no farm sets (the gateway's
# RouterConfig keeps both limits).
# shellcheck disable=SC2046
bad "retired SubfarmConfig field (the GMail MX is CCHosts[\"GMailMX\"]; flow limits live in gateway.RouterConfig)" \
	"$(awk '/^type SubfarmConfig struct/ {in_s=1}
		in_s && /GMailMX|MaxFlowsPer/ {print FILENAME ":" FNR ": " $0}
		in_s && /^}/ {in_s=0}' $(find internal/farm -name '*.go' ! -name '*_test.go'))"
exit $status
