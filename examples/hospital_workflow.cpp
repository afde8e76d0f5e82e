// Hospital workflow: admission, progress notes, a patient-requested
// correction (HIPAA right to amend), an emergency break-glass access,
// and the resulting audit/custody story.

#include <cstdio>
#include <string>

#include "common/clock.h"
#include "core/sharded_vault.h"
#include "storage/mem_env.h"

using medvault::ManualClock;
using medvault::kMicrosPerDay;
using medvault::kMicrosPerSecond;
using medvault::core::AuditActionName;
using medvault::core::Role;
using medvault::core::ShardedVault;
using medvault::core::ShardedVaultOptions;
using medvault::core::ShardRouter;

int main() {
  medvault::storage::MemEnv env;
  ManualClock clock(1700000000LL * 1000000);  // a fixed "today"

  ShardedVaultOptions options;
  options.env = &env;
  options.dir = "hospital-vault";
  options.clock = &clock;
  options.master_key = std::string(32, 'H');
  options.entropy = "hospital-entropy";
  options.num_shards = ShardRouter::ReadManifest(&env, options.dir).ValueOr(1);
  options.signer_height = 4;
  options.system_id = "st-elsewhere-ehr";
  auto vault = std::move(ShardedVault::Open(options)).value();

  // --- Staff & patient registration -----------------------------------
  (void)vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "IT"});
  (void)vault->RegisterPrincipal(
      "admin", {"dr-grey", Role::kPhysician, "Dr. Grey"});
  (void)vault->RegisterPrincipal(
      "admin", {"dr-house", Role::kPhysician, "Dr. House"});
  (void)vault->RegisterPrincipal(
      "admin", {"nurse-joy", Role::kNurse, "Nurse Joy"});
  (void)vault->RegisterPrincipal(
      "admin", {"clerk-kim", Role::kClerk, "Clerk Kim"});
  (void)vault->RegisterPrincipal(
      "admin", {"auditor-ann", Role::kAuditor, "Auditor Ann"});
  (void)vault->RegisterPrincipal("admin",
                                 {"pat-007", Role::kPatient, "J. Bond"});

  // Admission: Dr. Grey becomes the treating physician.
  (void)vault->AssignCare("admin", "dr-grey", "pat-007");
  (void)vault->AssignCare("admin", "nurse-joy", "pat-007");
  printf("== admission complete ==\n");

  // --- Clinical documentation ------------------------------------------
  auto admission = vault->CreateRecord(
      "dr-grey", "pat-007", "text/plain",
      "Admission note: chest pain, ECG normal, troponin pending.",
      {"chest-pain", "cardiology"}, "hipaa-6y");
  printf("admission note: %s\n", admission->c_str());

  clock.Advance(kMicrosPerDay);
  auto progress = vault->CreateRecord(
      "dr-grey", "pat-007", "text/plain",
      "Progress note: troponin negative. Diagnosis: costochondritis.",
      {"costochondritis"}, "hipaa-6y");
  printf("progress note: %s\n", progress->c_str());

  // The nurse reads (allowed), Dr. House does not treat this patient.
  auto nurse_read = vault->ReadRecord("nurse-joy", *admission);
  printf("nurse read: %s\n", nurse_read.status().ToString().c_str());
  auto house_read = vault->ReadRecord("dr-house", *admission);
  printf("dr-house read: %s\n", house_read.status().ToString().c_str());

  // --- Patient-requested correction -------------------------------------
  // The patient notices the admission note lists the wrong onset time.
  clock.Advance(kMicrosPerDay);
  auto amended = vault->CorrectRecord(
      "pat-007", *admission,
      "Admission note: chest pain since 06:00 (patient amendment), "
      "ECG normal, troponin pending.",
      "patient reports onset 06:00 not 09:00", {"chest-pain"});
  printf("patient amendment -> version %u\n", amended->version);

  // History is preserved: both versions verifiable and readable.
  auto history = vault->RecordHistory("dr-grey", *admission);
  printf("record %s has %zu versions:\n", admission->c_str(),
         history->size());
  for (const auto& h : *history) {
    printf("  v%u by %-8s %s\n", h.version, h.author.c_str(),
           h.reason.empty() ? "(original)" : h.reason.c_str());
  }

  // --- Emergency: break-glass --------------------------------------------
  // Dr. House covers the night shift; the patient crashes.
  clock.Advance(kMicrosPerDay / 3);
  auto grant = vault->BreakGlass("dr-house", "pat-007",
                                 "code blue, treating physician offsite",
                                 3600 * kMicrosPerSecond);
  printf("break-glass grant: %s\n", grant->c_str());
  auto emergency_read = vault->ReadRecord("dr-house", *admission);
  printf("dr-house read under break-glass: %s\n",
         emergency_read.ok() ? "OK" : "denied");

  // --- The compliance story ------------------------------------------------
  printf("\n== auditor view ==\n");
  auto trail = vault->ReadAuditTrail("auditor-ann", *admission);
  printf("%zu audit events touch %s:\n", trail->size(), admission->c_str());
  for (const auto& e : *trail) {
    printf("  #%llu %-13s by %s %s\n",
           static_cast<unsigned long long>(e.seq),
           AuditActionName(e.action), e.actor.c_str(),
           e.details.substr(0, 48).c_str());
  }
  auto checkpoints = vault->CheckpointAudit();
  for (const auto& checkpoint : *checkpoints) {
    printf("audit checkpoint signed over %llu events\n",
           static_cast<unsigned long long>(checkpoint.tree_size));
  }
  const medvault::Status verified = vault->VerifyEverything();
  printf("verify everything: %s\n", verified.ToString().c_str());
  return verified.ok() ? 0 : 1;
}
