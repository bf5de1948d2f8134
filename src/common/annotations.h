// Static-analysis annotations consumed by hoplite-sa
// (scripts/lint_determinism.py). Zero codegen: every macro here expands to
// nothing; the analyzer reads them from source text. They exist so the
// layer-ownership contract is written down where it is enforced.
//
// HOPLITE_DOMAIN_CONFINED — on a class declaration in src/directory/,
//   src/net/ or src/store/:
//
//     class HOPLITE_DOMAIN_CONFINED ObjectDirectory { ... };
//
//   declares that instances belong to the domain of their declaring
//   directory. hoplite-sa then enforces that non-const methods are invoked
//   only from that domain, from the owning composition layer (src/core,
//   which runs entirely on the owning domain's engine), from inside a
//   callback scheduled through a Schedule/Then sink (the callback executes
//   on the owning domain), or through a method annotated
//   `// hoplite-sa: mailbox -- <reason>` (the sanctioned cross-domain
//   surface, e.g. Fabric::Send). Ownership stays explicit: state that passes
//   this rule could later move to a per-rack domain without growing
//   cross-domain races.
//
// The comment-based annotations that pair with this header (all reasons
// mandatory; none count against the waiver budget):
//
//   // hoplite-sa: owner(<Class>) -- <reason>
//       <Class> is an engine-lifetime owner: instances outlive every event
//       they schedule, so its methods may capture `this` (or members by
//       reference) in lambdas passed to Schedule/Then sinks.
//   // hoplite-sa: value-type(<Class>) -- <reason>
//       <Class> lives in a confined directory but is a plain value passed
//       across domains by copy/handle; it is exempt from confinement.
//   // hoplite-sa: mailbox -- <reason>
//       On a method of a confined class: the sanctioned cross-domain entry
//       point.
#pragma once

#define HOPLITE_DOMAIN_CONFINED
