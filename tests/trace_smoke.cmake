# trace_smoke: run `graphjs scan --trace-out` on an example input and
# validate that the emitted Chrome trace is well-formed JSON whose
# traceEvents cover the pipeline phases. Driven by ctest (see
# tests/CMakeLists.txt); requires GRAPHJS_BIN, EXAMPLE, TRACE_OUT.

cmake_minimum_required(VERSION 3.19) # string(JSON), IN_LIST

# The example may be clean: every scan still imports and queries its MDG,
# so the import and query spans must appear below.
execute_process(
  COMMAND ${GRAPHJS_BIN} scan --trace-out ${TRACE_OUT} ${EXAMPLE}
  RESULT_VARIABLE SCAN_RESULT
  OUTPUT_QUIET)
if(NOT SCAN_RESULT EQUAL 0)
  message(FATAL_ERROR "graphjs scan --trace-out exited with ${SCAN_RESULT}")
endif()

file(READ ${TRACE_OUT} TRACE_JSON)

# string(JSON) fatally errors on malformed JSON, which is the point.
string(JSON EVENT_COUNT LENGTH "${TRACE_JSON}" traceEvents)
if(EVENT_COUNT LESS 1)
  message(FATAL_ERROR "trace has no traceEvents")
endif()

# Every pipeline phase must appear as a span name.
set(WANT_PHASES lex parse normalize build import query)
set(SEEN_PHASES "")
math(EXPR LAST "${EVENT_COUNT} - 1")
foreach(I RANGE 0 ${LAST})
  string(JSON NAME GET "${TRACE_JSON}" traceEvents ${I} name)
  string(JSON PH GET "${TRACE_JSON}" traceEvents ${I} ph)
  if(NOT PH STREQUAL "X")
    message(FATAL_ERROR "event ${I} (${NAME}) is not a complete event")
  endif()
  list(APPEND SEEN_PHASES ${NAME})
endforeach()
foreach(PHASE ${WANT_PHASES})
  if(NOT PHASE IN_LIST SEEN_PHASES)
    message(FATAL_ERROR "pipeline phase '${PHASE}' missing from trace")
  endif()
endforeach()

message(STATUS "trace_smoke: ${EVENT_COUNT} events, all phases present")
