// Binary encoding of one update tuple, shared by the WAL record payloads
// (persist/wal.h) and the serve wire protocol (serve/protocol.h), so both
// formats write a tuple with exactly the same bytes.
//
// Fields go out in declaration order as ByteWriter little-endian primitives;
// doubles as their IEEE-754 bit patterns. No framing, no length prefix:
// callers put the counts and the CRC around it.

#ifndef SCUBA_GEN_UPDATE_CODEC_H_
#define SCUBA_GEN_UPDATE_CODEC_H_

#include "common/serializer.h"
#include "common/status.h"
#include "gen/update.h"

namespace scuba {

void PutLocationUpdate(ByteWriter* w, const LocationUpdate& u);
Status GetLocationUpdate(ByteReader* r, LocationUpdate* u);

void PutQueryUpdate(ByteWriter* w, const QueryUpdate& u);
Status GetQueryUpdate(ByteReader* r, QueryUpdate* u);

}  // namespace scuba

#endif  // SCUBA_GEN_UPDATE_CODEC_H_
