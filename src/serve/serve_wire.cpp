#include "serve/serve_wire.hpp"

namespace ehja::serve {

RejectCode reject_code(AdmitReject reason) {
  switch (reason) {
    case AdmitReject::kQueueFull:
      return RejectCode::kQueueFull;
    case AdmitReject::kNeverAdmittable:
      return RejectCode::kNeverAdmittable;
    case AdmitReject::kUnknownTenant:
      return RejectCode::kUnknownTenant;
    case AdmitReject::kDraining:
      return RejectCode::kDraining;
  }
  return RejectCode::kBadFrame;
}

const char* reject_code_name(RejectCode code) {
  switch (code) {
    case RejectCode::kQueueFull:
      return "queue-full";
    case RejectCode::kNeverAdmittable:
      return "never-admittable";
    case RejectCode::kUnknownTenant:
      return "unknown-tenant";
    case RejectCode::kDraining:
      return "draining";
    case RejectCode::kBadConfig:
      return "bad-config";
    case RejectCode::kBadFrame:
      return "bad-frame";
    case RejectCode::kNoHello:
      return "no-hello";
  }
  return "?";
}

}  // namespace ehja::serve
