package lint

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// metricNameRE is the canonical shape of a swift metric name.
var metricNameRE = regexp.MustCompile(`^swift_[a-z]+(_[a-z0-9]+)*(_total|_seconds|_bytes|_ratio)?$`)

// metricPrefixes pins each instrumented layer to its naming prefix, so a
// dashboard query like swift_client_* can never silently miss a series
// registered from the wrong layer.
var metricPrefixes = map[string][]string{
	"core":     {"swift_client_", "swift_ec_"}, // core also instruments the erasure codec
	"agent":    {"swift_agent_", "swift_store_"},
	"mediator": {"swift_mediator_"},
	"memnet":   {"swift_net_"},
	"udpnet":   {"swift_udp_"},
}

// metricKindSuffix: counters count (…_total), histograms time (…_seconds).
var metricKindSuffix = map[string]string{
	"Counter":     "_total",
	"CounterFunc": "_total",
	"Histogram":   "_seconds",
}

// registryMethods are the obs.Registry registration entry points.
var registryMethods = map[string]bool{
	"Counter":     true,
	"Gauge":       true,
	"Histogram":   true,
	"CounterFunc": true,
	"GaugeFunc":   true,
}

// MetricName vets every obs.Registry registration call: the metric name
// must be a string literal matching the canonical pattern, carry the
// layer prefix of the registering package and the suffix of its kind,
// ship a non-empty literal help string, and be registered from exactly
// one call site per package (labeled instances share one site).
// Event tables name their counters in obs.EventKind rows, which
// obs.NewEvents registers: each row's Series and AgentSeries are vetted
// as counter registrations where the row is written, so a registration
// reading its name off a row's field is not vetted again.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc:  "obs registrations need literal, well-formed, layer-prefixed metric names",
	Run:  runMetricName,
}

func runMetricName(pass *Pass) {
	firstSite := make(map[string]token.Pos) // literal name -> first call site
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok && isEventKind(pass.TypeOf(lit)) {
				checkEventRow(pass, lit, firstSite)
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.Callee(call)
			if fn == nil || fn.Pkg() == nil || !registryMethods[fn.Name()] {
				return true
			}
			if !isObsRegistry(fn.Pkg().Path()) || recvTypeName(fn) != "Registry" {
				return true
			}
			if len(call.Args) >= 2 && !isEventRowSeries(pass, call.Args[0]) {
				checkName(pass, fn.Name(), call.Args[0], call.Args[1], firstSite)
			}
			return true
		})
	}
}

func isObsRegistry(pkgPath string) bool {
	return pkgPath == "swift/internal/obs" || strings.HasSuffix(pkgPath, "/internal/obs")
}

// recvTypeName returns the bare receiver type name of a method, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// isEventKind reports whether t is obs.EventKind or a pointer to one.
func isEventKind(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "EventKind" && named.Obj().Pkg() != nil && isObsRegistry(named.Obj().Pkg().Path())
}

// isEventRowSeries reports whether e reads an obs.EventKind's Series or
// AgentSeries, which checkEventRow vets at the row.
func isEventRowSeries(pass *Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && (sel.Sel.Name == "Series" || sel.Sel.Name == "AgentSeries") && isEventKind(pass.TypeOf(sel.X))
}

// checkEventRow vets an obs.EventKind row's Series and AgentSeries, with
// their help, as the counters obs.NewEvents registers from them.
func checkEventRow(pass *Pass, lit *ast.CompositeLit, firstSite map[string]token.Pos) {
	fields := make(map[string]ast.Expr) // go vet keeps other packages' literals of it keyed
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			fields[kv.Key.(*ast.Ident).Name] = kv.Value
		}
	}
	for _, f := range [][2]string{{"Series", "Help"}, {"AgentSeries", "AgentHelp"}} {
		if name := fields[f[0]]; name != nil {
			checkName(pass, "Counter", name, cmp.Or(fields[f[1]], name), firstSite)
		}
	}
}

// checkName vets one metric name and its help text; a help that is the
// name itself stands for a missing one.
func checkName(pass *Pass, kind string, nameArg, helpArg ast.Expr, firstSite map[string]token.Pos) {
	lit, ok := ast.Unparen(nameArg).(*ast.BasicLit)
	if !ok {
		pass.Reportf(nameArg.Pos(),
			"metricname: %s registration uses a non-literal name %s; metric names must be grep-able string literals",
			kind, exprString(nameArg))
		return
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !metricNameRE.MatchString(name) {
		pass.Reportf(nameArg.Pos(),
			"metricname: %q does not match %s", name, metricNameRE.String())
	} else {
		if prefixes, ok := metricPrefixes[pass.Pkg.Base()]; ok && !hasAnyPrefix(name, prefixes) {
			pass.Reportf(nameArg.Pos(),
				"metricname: %q lacks the %s layer prefix (%s)",
				name, pass.Pkg.Base(), strings.Join(prefixes, " or "))
		}
		if suffix, ok := metricKindSuffix[kind]; ok && !strings.HasSuffix(name, suffix) {
			pass.Reportf(nameArg.Pos(),
				"metricname: %s %q must end in %q", kind, name, suffix)
		}
	}
	if helpLit, ok := ast.Unparen(helpArg).(*ast.BasicLit); !ok || helpArg == nameArg {
		pass.Reportf(helpArg.Pos(),
			"metricname: help for %q must be a non-empty string literal", name)
	} else if help, err := strconv.Unquote(helpLit.Value); err == nil && strings.TrimSpace(help) == "" {
		pass.Reportf(helpArg.Pos(),
			"metricname: help for %q is empty", name)
	}
	if prev, dup := firstSite[name]; dup {
		pass.Reportf(nameArg.Pos(),
			"metricname: duplicate registration of %q in package %s (first at %s)",
			name, pass.Pkg.Base(), pass.Pkg.Fset.Position(prev))
	} else {
		firstSite[name] = nameArg.Pos()
	}
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
