#!/usr/bin/env python3
"""Unit tests for check_reachability.py's link-pass symbol filter and its
enumerator rule.

Feeds canned `nm -C --defined-only` lines and canned source trees through
them, so it runs without a build:

    python3 tools/test_check_reachability.py
"""

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import check_reachability as reach  # noqa: E402

UNITS = reach.unit_types(pathlib.Path(__file__).resolve().parent.parent)


def judged(line):
    """Whether the link pass judges the symbol of one canned nm line."""
    [(_, kind, name)] = reach.parse_nm(line)
    return reach.is_src_function(kind, name, UNITS)


class SymbolFilter(unittest.TestCase):
    def test_admits_inline_dlte_member(self):
        self.assertTrue(judged(
            "0000000000000000 W dlte::core::EnodeB::attaches_started() const"))

    def test_admits_inline_dlte_template_with_return_type(self):
        self.assertTrue(judged(
            "0000000000000000 W unsigned long dlte::sim::RngStream::"
            "draw<std::uniform_int_distribution<unsigned long> >("
            "std::uniform_int_distribution<unsigned long>&)"))

    def test_rejects_std_instantiation_returning_a_dlte_type(self):
        self.assertFalse(judged(
            "0000000000000000 W dlte::mac::SchedUe* std::__copy_move<false, "
            "true, std::random_access_iterator_tag>::__copy_m<"
            "dlte::mac::SchedUe*, dlte::mac::SchedUe*>(dlte::mac::SchedUe*, "
            "dlte::mac::SchedUe*, dlte::mac::SchedUe*)"))

    def test_rejects_lambdas_and_templates_instantiated_on_one(self):
        for name in ("dlte::core::EnodeB::attach_ue(dlte::ue::NasClient&, "
                     "std::function<void (dlte::core::AttachOutcome)>)::"
                     "{lambda()#1}::operator()() const",
                     "void dlte::obs::span_annotate<dlte::core::EnodeB::"
                     "attach_ue(dlte::ue::NasClient&)::{lambda()#1}>("
                     "dlte::obs::SpanTracer*, unsigned long, "
                     "dlte::core::EnodeB::attach_ue(dlte::ue::NasClient&)::"
                     "{lambda()#1}&&)"):
            with self.subTest(name=name):
                self.assertFalse(judged("0000000000000000 W " + name))

    def test_rejects_implicit_special_members(self):
        for name in ("dlte::epc::BearerContext::BearerContext()",
                     "dlte::epc::BearerContext::BearerContext("
                     "dlte::epc::BearerContext&&)",
                     "dlte::epc::BearerContext::BearerContext("
                     "dlte::epc::BearerContext const&)",
                     "dlte::epc::BearerContext::~BearerContext()",
                     "dlte::epc::BearerContext::operator=("
                     "dlte::epc::BearerContext const&)"):
            with self.subTest(name=name):
                self.assertFalse(judged("0000000000000000 W " + name))

    def test_admits_constructor_with_arguments(self):
        self.assertTrue(judged(
            "0000000000000000 W dlte::workload::UeCohort::UeCohort("
            "dlte::sim::Simulator&, dlte::workload::CohortConfig, "
            "dlte::sim::RngStream)"))

    def test_rejects_unit_operators(self):
        for name in ("dlte::operator+(dlte::Duration, dlte::Duration)",
                     "dlte::Duration::operator-=(dlte::Duration)",
                     "dlte::operator-(dlte::PowerDbm, dlte::Decibels)"):
            with self.subTest(name=name):
                self.assertFalse(judged("0000000000000000 W " + name))

    def test_admits_other_dlte_operators(self):
        self.assertTrue(judged(
            "0000000000000000 W dlte::sim::EventAction::operator bool() "
            "const"))

    def test_rejects_non_dlte_weak_symbol(self):
        self.assertFalse(judged(
            "0000000000000000 W std::vector<int, std::allocator<int> >::"
            "push_back(int const&)"))

    def test_out_of_line_functions_are_judged_whatever_their_name(self):
        for line in ("0000000000000000 T dlte::sim::Simulator::run_all()",
                     "0000000000000000 T dlte::epc::Mme::Mme("
                     "dlte::epc::Mme const&)",
                     "0000000000000000 T legacy_c_entry_point"):
            with self.subTest(line=line):
                self.assertTrue(judged(line))

    def test_other_symbol_kinds_are_not_functions(self):
        for line in ("0000000000000000 t dlte::(anonymous namespace)::"
                     "helper()",
                     "0000000000000000 V guard variable for dlte::x",
                     "0000000000000000 B dlte::counter"):
            with self.subTest(line=line):
                self.assertFalse(judged(line))


class Reporting(unittest.TestCase):
    NM = """
enodeb.o:
0000000000000000 W dlte::core::EnodeB::attaches_started() const
0000000000000000 T dlte::core::EnodeB::dead_out_of_line()
0000000000000000 T dlte::core::EnodeB::on_s1ap(int)

s1_fabric.o:
0000000000000000 W dlte::core::EnodeB::attaches_started() const
0000000000000000 W dlte::sim::LazyMt19937_64::max()
"""

    def test_inline_copies_fold_to_one_row_and_keep_by_name(self):
        dead = reach.unused_functions(
            [("core", reach.parse_nm(self.NM))],
            kept={"dlte::core::EnodeB::on_s1ap(int)"}, units=UNITS)
        self.assertEqual(dead, [
            ("core/enodeb", "dlte::core::EnodeB::dead_out_of_line()"),
            ("inline", "dlte::core::EnodeB::attaches_started() const"),
        ])


class Enumerators(unittest.TestCase):
    HEADER = """
namespace dlte::m {
enum class Kind { kMade, kCaseOnly, kCompared, kDefaulted, kTestOnly };
struct Spec {
  Kind kind{Kind::kDefaulted};
};
const char* name(Kind k);
}  // namespace dlte::m
"""
    SOURCE = """
#include "m/kind.h"
namespace dlte::m {
const char* name(Kind k) {
  switch (k) {
    case Kind::kCaseOnly:
      return "case";
    case Kind::kTestOnly:
      return "test";
    default:
      break;
  }
  if (k == Kind::kCompared || Kind::kCompared != k) return "compared";
  return "other";
}
}  // namespace dlte::m
"""
    BENCH = """
#include "m/kind.h"
int main() {
  dlte::m::Spec spec;
  if (spec.kind == dlte::m::Kind::kDefaulted) spec.kind = dlte::m::Kind::kMade;
  return dlte::m::name(spec.kind)[0];
}
"""
    TEST = """
#include "m/kind.h"
const auto k = dlte::m::Kind::kTestOnly;
"""

    def dead(self, **overrides):
        texts = {"src/m/kind.h": self.HEADER, "src/m/kind.cpp": self.SOURCE,
                 "bench/b.cpp": self.BENCH, "tests/t.cpp": self.TEST}
        texts.update(overrides)
        return reach.dead_symbols(texts, reach.live_files(texts))

    def test_names_enumerators_only_tests_select(self):
        # kMade is assigned, kDefaulted is a default member initializer;
        # the rest are only switched on, compared, or set by a test.
        self.assertEqual(self.dead(), [
            ("m/kind.h", "enumerator", "Kind::kCaseOnly"),
            ("m/kind.h", "enumerator", "Kind::kCompared"),
            ("m/kind.h", "enumerator", "Kind::kTestOnly"),
        ])

    def test_a_live_selection_outside_a_comparison_keeps_it(self):
        bench = self.BENCH.replace(
            "return", "spec.kind = dlte::m::Kind::kCompared;\n  return")
        self.assertNotIn(("m/kind.h", "enumerator", "Kind::kCompared"),
                         self.dead(**{"bench/b.cpp": bench}))

    def test_a_dead_enum_is_reported_whole(self):
        bench = "int main() { return 0; }\n"
        dead = self.dead(**{"bench/b.cpp": bench,
                            "src/m/user.cpp": '#include "m/kind.h"\n'})
        self.assertIn(("m/kind.h", "enum", "Kind"), dead)
        self.assertFalse([d for d in dead if d[1] == "enumerator"])

    def test_selecting_names_skips_case_labels_and_comparison_operands(self):
        toks = reach.tokenize(
            "switch (k) { case E::kA: x = E::kB; }"
            " if (s.kind == E::kC && E::kD != t) y = E::kE;")
        names = reach.selecting_names(toks)
        for name in ("kB", "kE", "x", "y", "switch"):
            self.assertIn(name, names)
        for name in ("kA", "kC", "kD", "kind", "t"):
            self.assertNotIn(name, names)


if __name__ == "__main__":
    unittest.main()
