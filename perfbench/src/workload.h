#ifndef MEDVAULT_PERFBENCH_WORKLOAD_H_
#define MEDVAULT_PERFBENCH_WORKLOAD_H_

#include <array>
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Operation kinds, in the order the benchmark reports them.
enum Kind : int { kRead = 0, kSearch, kCreate, kCorrect, kDisclosure, kKinds };

constexpr int kConns = 4;          ///< closed-loop connections (= nproc)
constexpr uint32_t kPatients = 1000;
constexpr size_t kNoteBytes = 1024;

/// One named workload: the corpus set up before the run and the op mix
/// each connection draws from during it.
struct WorkloadSpec {
  const char* name;
  uint32_t notes;                  ///< set-up notes, 1 KiB each
  bool zipf;                       ///< Zipf(1) popularity, else uniform
  std::array<double, kKinds> mix;  ///< share of each kind; sums to 1
  bool patient_sessions;           ///< reads use one of 1,000 patient logins
  double ops_per_second;           ///< op budget per second of --seconds
};

/// Null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// SplitMix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint32_t Below(uint32_t n) {
    return static_cast<uint32_t>((Next() >> 32) * n >> 32);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

uint64_t MixSeed(uint64_t a, uint64_t b);

/// Zipf(1) over n items whose popularity ranks are a seeded permutation.
class Zipf {
 public:
  Zipf(uint32_t n, uint64_t seed);
  uint32_t Sample(Rng* rng) const;

 private:
  std::vector<uint32_t> rank_to_item_;
  std::vector<double> cdf_;
};

/// Who owns which set-up notes and how popular each note and patient
/// is. Notes are split evenly over patients, each patient's notes
/// contiguous. Under Zipf, reads favour popular notes (so a share of
/// them hits the RecordCache) and searches and new notes favour
/// popular patients; otherwise every choice is uniform.
class Corpus {
 public:
  Corpus(const WorkloadSpec& spec, uint64_t seed);

  uint32_t notes() const { return notes_; }
  uint32_t FirstNote(uint32_t patient) const {
    return patient * per_patient_ + std::min(patient, extra_);
  }
  uint32_t NoteCount(uint32_t patient) const {
    return per_patient_ + (patient < extra_ ? 1 : 0);
  }
  uint32_t PatientOfNote(uint32_t note) const;
  uint32_t SamplePatient(Rng* rng) const;
  uint32_t SampleNote(Rng* rng) const;

 private:
  uint32_t notes_;
  uint32_t per_patient_;
  uint32_t extra_;  ///< the first `extra_` patients own one note more
  std::unique_ptr<Zipf> patients_;  ///< null: uniform
  std::unique_ptr<Zipf> notes_zipf_;
};

/// One operation of a connection's stream. `target` is a set-up note
/// index for reads and corrections, a patient index otherwise.
struct Op {
  int kind = kRead;
  uint32_t target = 0;
};

/// The seeded op stream of one connection. Corrections of note n come
/// only from connection n % kConns, so each note's corrections are
/// ordered and the read oracle can tell which texts are acceptable.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, const Corpus& corpus, uint64_t seed,
           int conn);
  Op Next();
  /// An op of `kind` regardless of the mix (layer probes).
  Op Of(int kind);

 private:
  const WorkloadSpec& spec_;
  const Corpus& corpus_;
  int conn_;
  Rng rng_;
};

/// The next ops of every connection, one list per connection.
using ConnOps = std::array<std::vector<Op>, kConns>;

/// Every connection's seeded stream `tag`, handed out in chunks, so a
/// chunk can be replayed at several depths before the next is drawn.
class ConnStreams {
 public:
  ConnStreams(const WorkloadSpec& spec, const Corpus& corpus, uint64_t seed,
              uint64_t tag);
  ConnOps Take(uint64_t ops_per_conn);

 private:
  std::vector<OpStream> streams_;
};

std::string PatientId(uint32_t patient);
std::string Clinician(int conn);
std::string Auditor(int conn);
/// The per-patient chart keyword every set-up note carries; chart
/// searches look it up.
std::string ChartKeyword(uint32_t patient);
/// The keyword of notes created during a run. It is indexed like the
/// chart keyword but never searched, so chart searches cost the same
/// however many notes the run has written.
std::string IntakeKeyword(uint32_t patient);

/// Deterministic 1 KiB texts. Only letters, digits and spaces, so they
/// travel through JSON unescaped.
std::string NoteText(uint64_t seed, uint32_t note, uint32_t patient);
std::string CreatedText(uint64_t seed, int conn, uint32_t seq,
                        uint32_t patient);
std::string CorrectionText(uint64_t seed, uint32_t note, uint32_t k);
/// The k of a CorrectionText, or 0 when `text` is not one.
uint32_t CorrectionNumber(const std::string& text);

}  // namespace perfbench

#endif  // MEDVAULT_PERFBENCH_WORKLOAD_H_
