// Copyright 2026 The QPGC Authors.
//
// Lifetime-contract annotation surface for the whole repository — the
// compile-time half of the capability model whose concurrency side lives in
// util/thread_annotations.h. The serving stack is built on zero-copy
// handles: std::span neighbor runs into frozen CSR buffers, GraphView
// adapters referencing a base graph, snapshot accessors returning references
// into frozen sides that are freed the moment the last pin on their
// snapshot drops. Every one of those handles carries a lifetime contract
// ("valid only while the owner lives", "valid only while the pin is held");
// these macros turn the common violations into Clang compile errors instead
// of doc-comment fine print. The taxonomy, the pin-scope rule, and the
// suppression policy are documented in docs/LIFETIMES.md.
//
//   QPGC_LIFETIME_BOUND   [[clang::lifetimebound]] — the returned reference/
//                         view is tied to the lifetime of the annotated
//                         parameter (or of *this when placed after the
//                         member function's cv-qualifiers). Binding the
//                         result of a call on a temporary, or returning a
//                         parameter-bound handle from a function whose
//                         owner argument is local, becomes -Wdangling /
//                         -Wreturn-stack-address.
//   QPGC_GSL_OWNER        [[gsl::Owner]] — the class owns the storage its
//                         handles point into (Graph, CsrGraph). Clang's
//                         statement-local -Wdangling-gsl analysis treats a
//                         destroyed Owner as invalidating Pointers obtained
//                         from it.
//   QPGC_GSL_POINTER      [[gsl::Pointer]] — the class is itself a
//                         non-owning view (ReversedView):
//                         constructing one from a temporary Owner is
//                         -Wdangling-gsl, and the pin-escape analyzer
//                         (tools/qpgc_pin_escape.py) exempts it from the
//                         view-typed-member ban (a view may alias; classes
//                         that are not views may not hold bare views).
//
// With Clang the three warning groups involved (-Wdangling, -Wdangling-gsl,
// -Wreturn-stack-address) are promoted to errors unconditionally by the
// root CMakeLists, so the clang++ CI leg gates on them; other compilers
// compile the macros as no-ops with zero overhead. The dangle shapes the
// statement-local analysis cannot see (pin temporaries dereferenced across
// a full-expression, view-typed members, view returns of function-scoped
// owners) are covered by tools/qpgc_pin_escape.py, and the use-after-retire
// class is additionally caught dynamically by the ASan regression test
// (tests/static_analysis/). Negative-compile tests in tests/static_analysis/
// prove each layer actually rejects a planted dangle.

#ifndef QPGC_UTIL_LIFETIME_ANNOTATIONS_H_
#define QPGC_UTIL_LIFETIME_ANNOTATIONS_H_

// Clang implements both the lifetimebound attribute and the GSL Owner /
// Pointer analysis; feature-test each so future compilers that pick one up
// get it automatically while GCC/MSVC compile the code unchanged (an
// unguarded unknown attribute would trip -Wattributes under -Werror).
#if defined(__clang__) && defined(__has_cpp_attribute)
#if __has_cpp_attribute(clang::lifetimebound)
#define QPGC_LIFETIME_BOUND [[clang::lifetimebound]]
#endif
#if __has_cpp_attribute(gsl::Owner)
#define QPGC_GSL_OWNER [[gsl::Owner]]
#endif
#if __has_cpp_attribute(gsl::Pointer)
#define QPGC_GSL_POINTER [[gsl::Pointer]]
#endif
#endif

#ifndef QPGC_LIFETIME_BOUND
#define QPGC_LIFETIME_BOUND
#endif
#ifndef QPGC_GSL_OWNER
#define QPGC_GSL_OWNER
#endif
#ifndef QPGC_GSL_POINTER
#define QPGC_GSL_POINTER
#endif

#endif  // QPGC_UTIL_LIFETIME_ANNOTATIONS_H_
