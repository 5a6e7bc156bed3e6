#include "gen/update_codec.h"

namespace scuba {

void PutLocationUpdate(ByteWriter* w, const LocationUpdate& u) {
  w->PutU32(u.oid);
  w->PutDouble(u.position.x);
  w->PutDouble(u.position.y);
  w->PutI64(u.time);
  w->PutDouble(u.speed);
  w->PutU32(u.dest_node);
  w->PutDouble(u.dest_position.x);
  w->PutDouble(u.dest_position.y);
  w->PutU64(u.attrs);
}

Status GetLocationUpdate(ByteReader* r, LocationUpdate* u) {
  SCUBA_RETURN_IF_ERROR(r->GetU32(&u->oid));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->position.x));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->position.y));
  SCUBA_RETURN_IF_ERROR(r->GetI64(&u->time));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->speed));
  SCUBA_RETURN_IF_ERROR(r->GetU32(&u->dest_node));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->dest_position.x));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->dest_position.y));
  return r->GetU64(&u->attrs);
}

void PutQueryUpdate(ByteWriter* w, const QueryUpdate& u) {
  w->PutU32(u.qid);
  w->PutDouble(u.position.x);
  w->PutDouble(u.position.y);
  w->PutI64(u.time);
  w->PutDouble(u.speed);
  w->PutU32(u.dest_node);
  w->PutDouble(u.dest_position.x);
  w->PutDouble(u.dest_position.y);
  w->PutDouble(u.range_width);
  w->PutDouble(u.range_height);
  w->PutU64(u.attrs);
  w->PutU64(u.required_attrs);
}

Status GetQueryUpdate(ByteReader* r, QueryUpdate* u) {
  SCUBA_RETURN_IF_ERROR(r->GetU32(&u->qid));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->position.x));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->position.y));
  SCUBA_RETURN_IF_ERROR(r->GetI64(&u->time));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->speed));
  SCUBA_RETURN_IF_ERROR(r->GetU32(&u->dest_node));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->dest_position.x));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->dest_position.y));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->range_width));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&u->range_height));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&u->attrs));
  return r->GetU64(&u->required_attrs);
}

}  // namespace scuba
