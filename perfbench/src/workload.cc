#include "workload.h"

#include <algorithm>

namespace perfbench {

const std::vector<WorkloadSpec>& AllWorkloads() {
  // ops_per_second sets the fixed op budget (budget = rate x --seconds),
  // so every commit measures the same work; rates are about what this
  // code sustains on one CPU of the development host, where the
  // end-to-end run is pinned.
  static const std::vector<WorkloadSpec> kAll = {
      {"portal_reads", kPatients, false, {1.0, 0, 0, 0, 0}, true, 12000},
      {"ward_mix", 32768, true, {0.90, 0.05, 0.03, 0.01, 0.01}, false, 6000},
      {"intake_durable", kPatients, false, {0, 0, 1.0, 0, 0}, false, 1100},
  };
  return kAll;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint64_t MixSeed(uint64_t a, uint64_t b) {
  Rng rng(a ^ (b * 0xd1342543de82ef95ull));
  rng.Next();
  return rng.Next();
}

Zipf::Zipf(uint32_t n, uint64_t seed) : rank_to_item_(n), cdf_(n) {
  Rng rng(seed);
  for (uint32_t i = 0; i < n; ++i) rank_to_item_[i] = i;
  for (uint32_t i = n - 1; i > 0; --i) {
    std::swap(rank_to_item_[i], rank_to_item_[rng.Below(i + 1)]);
  }
  double total = 0;
  for (uint32_t r = 0; r < n; ++r) total += 1.0 / (r + 1);
  double acc = 0;
  for (uint32_t r = 0; r < n; ++r) {
    acc += 1.0 / (r + 1) / total;
    cdf_[r] = acc;
  }
}

uint32_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Unit();
  const size_t rank = std::min<size_t>(
      static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                          cdf_.begin()),
      cdf_.size() - 1);
  return rank_to_item_[rank];
}

Corpus::Corpus(const WorkloadSpec& spec, uint64_t seed)
    : notes_(spec.notes),
      per_patient_(spec.notes / kPatients),
      extra_(spec.notes % kPatients) {
  if (spec.zipf) {
    patients_ = std::make_unique<Zipf>(kPatients, MixSeed(seed, 0xa1));
    notes_zipf_ = std::make_unique<Zipf>(spec.notes, MixSeed(seed, 0xa2));
  }
}

uint32_t Corpus::PatientOfNote(uint32_t note) const {
  // The first extra_ patients own per_patient_ + 1 notes each.
  const uint32_t big = extra_ * (per_patient_ + 1);
  if (note < big) return note / (per_patient_ + 1);
  return extra_ + (note - big) / per_patient_;
}

uint32_t Corpus::SamplePatient(Rng* rng) const {
  return patients_ ? patients_->Sample(rng) : rng->Below(kPatients);
}

uint32_t Corpus::SampleNote(Rng* rng) const {
  if (notes_zipf_) return notes_zipf_->Sample(rng);
  const uint32_t p = rng->Below(kPatients);
  return FirstNote(p) + rng->Below(NoteCount(p));
}

OpStream::OpStream(const WorkloadSpec& spec, const Corpus& corpus,
                   uint64_t seed, int conn)
    : spec_(spec), corpus_(corpus), conn_(conn), rng_(MixSeed(seed, conn)) {}

Op OpStream::Next() {
  const double u = rng_.Unit();
  double acc = 0;
  int kind = kKinds - 1;
  for (int k = 0; k < kKinds; ++k) {
    acc += spec_.mix[k];
    if (spec_.mix[k] > 0 && u < acc) {
      kind = k;
      break;
    }
  }
  while (spec_.mix[kind] == 0) --kind;  // rounding past the last share
  return Of(kind);
}

Op OpStream::Of(int kind) {
  Op op;
  op.kind = kind;
  switch (kind) {
    case kRead:
      op.target = corpus_.SampleNote(&rng_);
      break;
    case kCorrect: {
      const uint32_t owned =
          (corpus_.notes() - static_cast<uint32_t>(conn_) + kConns - 1) /
          kConns;
      op.target = static_cast<uint32_t>(conn_) + kConns * rng_.Below(owned);
      break;
    }
    case kDisclosure:
      // An auditor pulls a random patient's accounting: reports grow
      // with every audited read, and a Zipf choice would make this a
      // benchmark of the one hottest patient's report.
      op.target = rng_.Below(kPatients);
      break;
    default:
      op.target = corpus_.SamplePatient(&rng_);
      break;
  }
  return op;
}

ConnStreams::ConnStreams(const WorkloadSpec& spec, const Corpus& corpus,
                         uint64_t seed, uint64_t tag) {
  for (int c = 0; c < kConns; ++c) {
    streams_.emplace_back(spec, corpus, MixSeed(seed, tag), c);
  }
}

ConnOps ConnStreams::Take(uint64_t ops_per_conn) {
  ConnOps ops;
  for (int c = 0; c < kConns; ++c) {
    ops[c].reserve(ops_per_conn);
    for (uint64_t i = 0; i < ops_per_conn; ++i) {
      ops[c].push_back(streams_[c].Next());
    }
  }
  return ops;
}

std::string PatientId(uint32_t patient) {
  return "pat-" + std::to_string(patient);
}
std::string Clinician(int conn) { return "dr-" + std::to_string(conn); }
std::string Auditor(int conn) { return "aud-" + std::to_string(conn); }
std::string ChartKeyword(uint32_t patient) {
  return "mrn-" + std::to_string(patient);
}
std::string IntakeKeyword(uint32_t patient) {
  return "visit-" + std::to_string(patient);
}

namespace {

std::string Fill(std::string text, uint64_t seed) {
  static const char kAlphabet[33] = "abcdefghijklmnopqrstuvwxyz 01234";
  Rng rng(seed);
  text.reserve(kNoteBytes);
  while (text.size() < kNoteBytes) {
    uint64_t bits = rng.Next();
    for (int i = 0; i < 12 && text.size() < kNoteBytes; ++i, bits >>= 5) {
      text.push_back(kAlphabet[bits & 31]);
    }
  }
  return text;
}

}  // namespace

std::string NoteText(uint64_t seed, uint32_t note, uint32_t patient) {
  return Fill("note " + std::to_string(note) + " of " + PatientId(patient) +
                  " ",
              MixSeed(MixSeed(seed, 0x11), note));
}

std::string CreatedText(uint64_t seed, int conn, uint32_t seq,
                        uint32_t patient) {
  return Fill("new " + std::to_string(conn) + " " + std::to_string(seq) +
                  " of " + PatientId(patient) + " ",
              MixSeed(MixSeed(MixSeed(seed, 0x22), conn), seq));
}

std::string CorrectionText(uint64_t seed, uint32_t note, uint32_t k) {
  return Fill("corr " + std::to_string(k) + " of note " +
                  std::to_string(note) + " ",
              MixSeed(MixSeed(MixSeed(seed, 0x33), note), k));
}

uint32_t CorrectionNumber(const std::string& text) {
  if (text.rfind("corr ", 0) != 0) return 0;
  uint32_t k = 0;
  for (size_t i = 5; i < text.size() && text[i] >= '0' && text[i] <= '9';
       ++i) {
    k = k * 10 + static_cast<uint32_t>(text[i] - '0');
  }
  return k;
}

}  // namespace perfbench
